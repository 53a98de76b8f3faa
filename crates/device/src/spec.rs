/// The paper's abstraction of a parallel computational resource `G`,
/// extended with the two timing constants the simulator needs.
///
/// | Field | Paper symbol | Meaning |
/// |---|---|---|
/// | `parallel_capacity` | `C_G` | operations per launch at full utilisation |
/// | `memory_floats` | `S_G` | device memory, counted in matrix elements |
/// | `peak_flops` | — | sustained op/s once saturated |
/// | `launch_overhead` | — | fixed seconds per kernel launch (Amdahl term) |
///
/// `memory_floats` counts *storage slots for matrix elements* rather than
/// bytes so that the Step-1 formula `(d + l + m) · n ≤ S_G` can be used
/// verbatim; the paper trains in f32, so a 12 GB card holds `3e9` slots.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// Human-readable device name.
    pub name: String,
    /// `C_G`: operations one launch must execute to fully utilise `G`.
    pub parallel_capacity: f64,
    /// `S_G`: device memory in matrix-element slots.
    pub memory_floats: f64,
    /// Sustained throughput (operations per second) once saturated.
    pub peak_flops: f64,
    /// Fixed per-launch overhead in seconds.
    pub launch_overhead: f64,
}

impl ResourceSpec {
    /// Creates a spec from raw constants.
    ///
    /// # Panics
    ///
    /// Panics if any numeric field is non-positive (overhead may be zero).
    pub fn new(
        name: impl Into<String>,
        parallel_capacity: f64,
        memory_floats: f64,
        peak_flops: f64,
        launch_overhead: f64,
    ) -> Self {
        assert!(
            parallel_capacity > 0.0,
            "parallel_capacity must be positive"
        );
        assert!(memory_floats > 0.0, "memory_floats must be positive");
        assert!(peak_flops > 0.0, "peak_flops must be positive");
        assert!(
            launch_overhead >= 0.0,
            "launch_overhead must be non-negative"
        );
        ResourceSpec {
            name: name.into(),
            parallel_capacity,
            memory_floats,
            peak_flops,
            launch_overhead,
        }
    }

    /// Nvidia GTX Titan Xp (Pascal), the paper's primary device: 3840 CUDA
    /// cores, 12 GB.
    ///
    /// `C_G` is calibrated so that Step 1 reproduces the Table-4 batch sizes
    /// (MNIST at `n = 1e6`, `d = 784`, `l = 10` gives `m ≈ 735`):
    /// `C_G = (784 + 10) · 735 · 1e6 ≈ 5.8e11`. `S_G = 3e9` f32 slots (12 GB),
    /// sustained throughput ~10 Tops/s (f32 FMA counted as 2 ops),
    /// ~10 µs launch overhead.
    pub fn titan_xp() -> Self {
        ResourceSpec::new("GTX Titan Xp", 5.8e11, 3.0e9, 1.0e13, 1.0e-5)
    }

    /// Nvidia Tesla K40c (Kepler, used by the FALKON rows of Table 2):
    /// 2880 cores, 12 GB, roughly 40% of the Titan Xp's sustained throughput.
    pub fn tesla_k40c() -> Self {
        ResourceSpec::new("Tesla K40c", 2.3e11, 3.0e9, 4.0e12, 1.5e-5)
    }

    /// A generic multi-core CPU host model (the LibSVM rows of Table 3):
    /// low parallel capacity, main-memory sized, modest throughput,
    /// negligible launch overhead.
    ///
    /// The sustained rate (3.5e10 op/s) is *re-measured*, not guessed: it is
    /// the f64 rate the packed register-blocked GEMM actually holds on a
    /// single CI-class AVX-512 core (`BENCH_gemm.json`; the f32 kernel
    /// sustains ~2.3x that). The previous constant (5e10) predated the
    /// blocked engine and overstated what any dense loop here reached, which
    /// quietly skewed every simulated-vs-wall-clock comparison.
    pub fn cpu_host() -> Self {
        ResourceSpec::new("CPU host", 1.0e8, 1.6e10, 3.5e10, 1.0e-7)
    }

    /// A scaled-down virtual GPU for laptop-scale experiments: keeps the
    /// *ratios* of the Titan Xp (so curve shapes match Figure 3) while the
    /// saturating batch size lands in the hundreds for `n ~ 1e4` problems.
    ///
    /// `C_G = 4e9` means an `n = 1e4, d = 390, l = 10` TIMIT-like clone
    /// saturates at `m = C_G / ((d+l)·n) = 1000`.
    pub fn scaled_virtual_gpu() -> Self {
        ResourceSpec::new("virtual GPU (scaled)", 4.0e9, 4.0e8, 2.0e11, 1.0e-5)
    }

    /// Calibrates a spec against the host CPU by timing a small dense
    /// matrix-multiply workload, keeping the shape constants of `base`.
    ///
    /// The returned spec has `peak_flops` set to the measured sustained
    /// throughput, so simulated times are comparable with real wall-clock
    /// measurements taken on this machine.
    pub fn calibrated_to_host(base: &ResourceSpec, measured_flops: f64) -> Self {
        let mut spec = base.clone();
        spec.peak_flops = measured_flops.max(1.0);
        spec.name = format!("{} (host-calibrated)", base.name);
        spec
    }

    /// Time for one saturating launch: `C_G / peak_flops` seconds. This is
    /// the flat part of the Figure-3a curve.
    pub fn saturated_launch_time(&self) -> f64 {
        self.parallel_capacity / self.peak_flops
    }

    /// Memory capacity in *stored elements* under the given precision
    /// policy.
    ///
    /// `memory_floats` counts f32-sized reference slots (the paper trains in
    /// f32); storing f64 elements costs two slots each, so the same card
    /// holds half as many — and Step 1's memory-limited batch `m^S_G`
    /// shrinks accordingly. See [`crate::batch::max_batch_with`].
    pub fn memory_slots(&self, precision: crate::Precision) -> f64 {
        self.memory_floats / precision.slot_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for spec in [
            ResourceSpec::titan_xp(),
            ResourceSpec::tesla_k40c(),
            ResourceSpec::cpu_host(),
            ResourceSpec::scaled_virtual_gpu(),
        ] {
            assert!(spec.parallel_capacity > 0.0);
            assert!(spec.memory_floats > 0.0);
            assert!(spec.peak_flops > 0.0);
            assert!(spec.saturated_launch_time() > 0.0);
            assert!(!spec.name.is_empty());
        }
    }

    #[test]
    fn titan_xp_faster_than_k40c() {
        assert!(ResourceSpec::titan_xp().peak_flops > ResourceSpec::tesla_k40c().peak_flops);
    }

    #[test]
    fn calibration_overrides_throughput() {
        let c = ResourceSpec::calibrated_to_host(&ResourceSpec::titan_xp(), 3.2e9);
        assert_eq!(c.peak_flops, 3.2e9);
        assert!(c.name.contains("host-calibrated"));
        assert_eq!(
            c.parallel_capacity,
            ResourceSpec::titan_xp().parallel_capacity
        );
    }

    #[test]
    #[should_panic(expected = "peak_flops")]
    fn rejects_nonpositive_flops() {
        let _ = ResourceSpec::new("bad", 1.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn memory_slots_halve_under_f64() {
        let spec = ResourceSpec::titan_xp();
        assert_eq!(spec.memory_slots(crate::Precision::F32), spec.memory_floats);
        assert_eq!(
            spec.memory_slots(crate::Precision::Mixed),
            spec.memory_floats
        );
        assert_eq!(
            spec.memory_slots(crate::Precision::F64),
            spec.memory_floats / 2.0
        );
    }
}
