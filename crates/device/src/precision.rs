//! The numeric-precision policy, and its coupling to the resource model.
//!
//! The paper's resource abstraction measures device memory `S_G` in
//! *matrix-element slots* ("the paper trains in f32, so a 12 GB card holds
//! 3e9 slots"). The slot width is therefore part of the resource model:
//! training in f64 halves the number of slots the same card provides, which
//! halves the memory-limited batch `m^S_G` from Step 1 — and conversely,
//! switching the hot buffers to f32 doubles it. [`Precision`] names the
//! three supported operating points and carries the conversion factors the
//! batch planner ([`crate::batch::max_batch_with`]) and the memory ledger
//! use.

use std::fmt;

/// Numeric precision policy for training.
///
/// | Variant | Hot buffers (features, kernel blocks, weights) | Register-tile compute | Eigensolves / step size / error accumulation |
/// |---|---|---|---|
/// | `F32` | f32 | f32 | f32-assembled spectra (eigensolver still iterates in f64) |
/// | `F64` | f64 | f64 | f64 |
/// | `Mixed` | f32 | f32 | f64 (planning runs at full precision, hot loop in f32) |
/// | `Bf16` | bf16 (2 bytes/element) | f32 (panels widened at pack time) | f64 (plans like `Mixed`) |
///
/// `F64` is the default (the library's historical behaviour); `F32` is the
/// paper-faithful GPU configuration; `Mixed` keeps the f32 hot-path speed
/// and memory while the quantities that set the analytic step size
/// `η = m/(β_G + (m−1)λ₁(K_G))` are produced at full precision. `Bf16`
/// halves storage again: kernel blocks, streamed tile rings and weights are
/// stored as bfloat16 (`slot_factor = 0.5`, so `m^S_G` and the streamed
/// `n_tile` double vs f32 at equal `S_G`) while every GEMM register tile
/// and error-sensitive reduction still computes in f32 and planning runs at
/// f64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Single precision end to end — the paper's GPU scenario.
    F32,
    /// Double precision end to end (default).
    #[default]
    F64,
    /// f32 kernel assembly + GEMM, f64 eigensolves/step-size/error sums.
    Mixed,
    /// bf16 kernel-block storage, f32 register-tile compute, f64 planning.
    Bf16,
}

impl Precision {
    /// All policies (for sweeps and CLI listings).
    pub const ALL: [Precision; 4] = [
        Precision::F32,
        Precision::F64,
        Precision::Mixed,
        Precision::Bf16,
    ];

    /// Bytes per stored matrix element in the *hot* buffers — what occupies
    /// device memory during training.
    pub fn bytes_per_element(self) -> usize {
        match self {
            Precision::Bf16 => 2,
            Precision::F32 | Precision::Mixed => 4,
            Precision::F64 => 8,
        }
    }

    /// Memory-slot cost of one stored element, relative to the f32
    /// reference slot `ResourceSpec::memory_floats` counts: 0.5 for `Bf16`,
    /// 1 for `F32`/`Mixed`, 2 for `F64`. Half-width slots are how the batch
    /// planner doubles `m^S_G`/`n_tile` under bf16 with no extra plumbing.
    pub fn slot_factor(self) -> f64 {
        self.bytes_per_element() as f64 / 4.0
    }

    /// Parses a CLI name (`"f32"`, `"f64"`, `"mixed"`, `"bf16"`);
    /// case-insensitive.
    pub fn parse(name: &str) -> Option<Precision> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "single" | "float" => Some(Precision::F32),
            "f64" | "double" => Some(Precision::F64),
            "mixed" | "amp" => Some(Precision::Mixed),
            "bf16" | "bfloat16" => Some(Precision::Bf16),
            _ => None,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
            Precision::Mixed => "mixed",
            Precision::Bf16 => "bf16",
        })
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Precision::parse(s)
            .ok_or_else(|| format!("unknown precision {s} (f32 | f64 | mixed | bf16)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_factors() {
        assert_eq!(Precision::F32.slot_factor(), 1.0);
        assert_eq!(Precision::Mixed.slot_factor(), 1.0);
        assert_eq!(Precision::F64.slot_factor(), 2.0);
        assert_eq!(Precision::Bf16.slot_factor(), 0.5);
        assert_eq!(Precision::F32.bytes_per_element(), 4);
        assert_eq!(Precision::F64.bytes_per_element(), 8);
        assert_eq!(Precision::Bf16.bytes_per_element(), 2);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(&p.to_string()), Some(p));
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
        }
        assert_eq!(Precision::parse("SINGLE"), Some(Precision::F32));
        assert_eq!(Precision::parse("amp"), Some(Precision::Mixed));
        assert_eq!(Precision::parse("BFloat16"), Some(Precision::Bf16));
        assert_eq!(
            Precision::parse("f16"),
            None,
            "IEEE half is a ROADMAP follow-on"
        );
    }

    #[test]
    fn default_is_f64() {
        assert_eq!(Precision::default(), Precision::F64);
    }
}
