//! Machine configuration, defaulting to the paper's Figure 6(a).

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / (self.assoc * self.line_bytes).max(1)).max(1)
    }

    /// Checks that the geometry is realizable: the address math divides
    /// by both the associativity and the line size, and a fill needs at
    /// least one way to land in.
    pub fn validate(&self) -> Result<(), String> {
        if self.assoc == 0 {
            return Err("cache associativity must be at least 1".to_string());
        }
        if self.line_bytes == 0 {
            return Err("cache line size must be at least 1 byte".to_string());
        }
        Ok(())
    }
}

/// Branch handling in the front end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchModel {
    /// Redirects are free beyond ending the issue group (the default;
    /// an idealized predictor).
    Ideal,
    /// Static backward-taken / forward-not-taken prediction: a
    /// mispredicted conditional branch stalls the front end for the
    /// given penalty.
    StaticBtfn {
        /// Refill penalty in cycles.
        penalty: u64,
    },
}

/// Synchronization array parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaConfig {
    /// Number of queues.
    pub num_queues: usize,
    /// Per-queue entry capacities. A single element is broadcast to
    /// every queue — the uniform configuration (depth 1 in the base SA;
    /// 32 for DSWP) — otherwise queue `q` gets `depths[q]`, as produced
    /// by the profile-weighted allocator in `gmt_mtcg::queues`.
    /// [`MachineConfig::validate`] rejects any other length.
    pub depths: Vec<usize>,
    /// Access latency in cycles.
    pub latency: u64,
    /// Request ports shared between all cores per cycle.
    pub ports: usize,
}

impl SaConfig {
    /// The capacity of queue `q` under the broadcast rule.
    pub fn depth_of(&self, q: usize) -> usize {
        if self.depths.len() == 1 {
            self.depths[0]
        } else {
            self.depths.get(q).copied().unwrap_or(1)
        }
    }

    /// Compact rendering of the depth vector: `[32]` when uniform,
    /// the full vector otherwise.
    pub fn depths_summary(&self) -> String {
        if self.depths.windows(2).all(|w| w[0] == w[1]) {
            format!("[{}]", self.depths.first().copied().unwrap_or(1))
        } else {
            format!("{:?}", self.depths)
        }
    }
}

/// Full machine description.
///
/// Defaults reproduce the evaluated machine: dual-core, 6-issue
/// in-order cores with 6 ALU / 4 memory / 2 FP / 3 branch units, 16 KB
/// 4-way L1D (1 cycle), 256 KB 8-way private L2 (7 cycles), 1.5 MB
/// 12-way shared L3 (12 cycles), 141-cycle main memory, snoop-based
/// write-invalidate coherence, and a 256-queue synchronization array
/// with 1-cycle access and 4 shared ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Instructions issued per cycle per core.
    pub issue_width: usize,
    /// ALU units per core.
    pub alu_units: usize,
    /// Memory (M-type) issue ports per core — shared by loads, stores,
    /// and all produce/consume instructions, as on Itanium 2.
    pub mem_ports: usize,
    /// Floating-point units per core.
    pub fp_units: usize,
    /// Branch units per core.
    pub branch_units: usize,
    /// L1 data cache (private, per core).
    pub l1d: CacheConfig,
    /// L2 cache (private, per core).
    pub l2: CacheConfig,
    /// L3 cache (shared).
    pub l3: CacheConfig,
    /// Main memory latency in cycles.
    pub mem_latency: u64,
    /// Synchronization array.
    pub sa: SaConfig,
    /// Branch handling.
    pub branch_model: BranchModel,
    /// Simulation cycle budget (deadlock/livelock guard).
    pub max_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            issue_width: 6,
            alu_units: 6,
            mem_ports: 4,
            fp_units: 2,
            branch_units: 3,
            l1d: CacheConfig { size_bytes: 16 * 1024, assoc: 4, line_bytes: 64, latency: 1 },
            l2: CacheConfig { size_bytes: 256 * 1024, assoc: 8, line_bytes: 128, latency: 7 },
            l3: CacheConfig {
                size_bytes: 1536 * 1024,
                assoc: 12,
                line_bytes: 128,
                latency: 12,
            },
            mem_latency: 141,
            sa: SaConfig { num_queues: 256, depths: vec![32], latency: 1, ports: 4 },
            branch_model: BranchModel::Ideal,
            max_cycles: 2_000_000_000,
        }
    }
}

impl MachineConfig {
    /// Sets a *uniform default* depth: every queue gets `depth` entries
    /// (the base single-element synchronization array used for GREMIO
    /// is `with_queue_depth(1)`). Per-queue heterogeneous capacities go
    /// through [`MachineConfig::with_queue_depths`] instead.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> MachineConfig {
        self.sa.depths = vec![depth];
        self
    }

    /// Sets heterogeneous per-queue depths, e.g. the profile-weighted
    /// allocation from `gmt_mtcg::queues::allocate_depths`. The vector
    /// must hold one entry per queue (or a single broadcast element);
    /// [`MachineConfig::validate`] enforces this.
    #[must_use]
    pub fn with_queue_depths(mut self, depths: Vec<usize>) -> MachineConfig {
        self.sa.depths = depths;
        self
    }

    /// Checks the whole machine description for values the simulator
    /// cannot model: a zero-width or unit-less core would never issue
    /// (permanent structural stall), a port-less synchronization array
    /// can never serve a communication instruction, and degenerate
    /// cache geometry breaks the set-index math.
    ///
    /// [`crate::simulate`] runs this up front so untrusted
    /// configurations produce an error instead of a hang or panic.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [
            ("issue_width", self.issue_width),
            ("alu_units", self.alu_units),
            ("mem_ports", self.mem_ports),
            ("fp_units", self.fp_units),
            ("branch_units", self.branch_units),
            ("sa.ports", self.sa.ports),
        ] {
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        // A depth-0 queue can never accept a produce: the producing
        // core would spin on queue-full stalls until `max_cycles` —
        // a 2-billion-cycle hang, not a simulation.
        if self.sa.num_queues > 0 {
            if self.sa.depths.is_empty() {
                return Err("sa.depths must hold at least one entry".to_string());
            }
            if self.sa.depths.len() != 1 && self.sa.depths.len() != self.sa.num_queues {
                return Err(format!(
                    "sa.depths must hold 1 (broadcast) or num_queues ({}) entries, got {}",
                    self.sa.num_queues,
                    self.sa.depths.len()
                ));
            }
            if self.sa.depths.iter().any(|&d| d == 0) {
                return Err("sa.depth must be at least 1 for every queue".to_string());
            }
        }
        // The event-driven fast-forward requires every self-wakeup to
        // be strictly in the future: a zero mispredict penalty makes
        // the refill deadline (`fetch_stalled_until = now + penalty`)
        // coincide with the stall cycle itself, and a zero-latency
        // array is the only other knob that can push wakeup sources
        // onto that boundary. Either alone stays well-formed (the
        // penalty-0 stall simply never records; latency-0 entries are
        // still visible one cycle out) — only the combination on a
        // machine that actually has queues leaves no strictly-future
        // wakeup source at all, so reject exactly that.
        if let BranchModel::StaticBtfn { penalty: 0 } = self.branch_model {
            if self.sa.latency == 0 && self.sa.num_queues > 0 {
                return Err(
                    "StaticBtfn with penalty 0 combined with a zero-latency synchronization \
                     array leaves the stall wakeup computation degenerate; give the branch \
                     penalty or the SA latency at least 1 cycle (or use BranchModel::Ideal)"
                        .to_string(),
                );
            }
        }
        for (name, c) in [("l1d", self.l1d), ("l2", self.l2), ("l3", self.l3)] {
            c.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Renders the Figure 6(a) machine-details table.
    pub fn describe(&self) -> String {
        format!(
            "Core        | {}-issue, {} ALU, {} memory, {} FP, {} branch\n\
             L1D Cache   | {} cycle, {} KB, {}-way, {}B lines\n\
             L2 Cache    | {} cycles, {} KB, {}-way, {}B lines\n\
             Shared L3   | {} cycles, {} KB, {}-way, {}B lines\n\
             Main Memory | {} cycles\n\
             Coherence   | snoop-based write-invalidate\n\
             Sync Array  | {} queues x {} entries, {}-cycle, {} ports",
            self.issue_width,
            self.alu_units,
            self.mem_ports,
            self.fp_units,
            self.branch_units,
            self.l1d.latency,
            self.l1d.size_bytes / 1024,
            self.l1d.assoc,
            self.l1d.line_bytes,
            self.l2.latency,
            self.l2.size_bytes / 1024,
            self.l2.assoc,
            self.l2.line_bytes,
            self.l3.latency,
            self.l3.size_bytes / 1024,
            self.l3.assoc,
            self.l3.line_bytes,
            self.mem_latency,
            self.sa.num_queues,
            self.sa.depths_summary(),
            self.sa.latency,
            self.sa.ports,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_figure_6a() {
        let m = MachineConfig::default();
        assert_eq!(m.issue_width, 6);
        assert_eq!(m.mem_ports, 4);
        assert_eq!(m.l1d.size_bytes, 16 * 1024);
        assert_eq!(m.l2.latency, 7);
        assert_eq!(m.mem_latency, 141);
        assert_eq!(m.sa.num_queues, 256);
    }

    #[test]
    fn cache_set_math() {
        let c = CacheConfig { size_bytes: 16 * 1024, assoc: 4, line_bytes: 64, latency: 1 };
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    fn describe_mentions_key_figures() {
        let d = MachineConfig::default().describe();
        assert!(d.contains("6-issue"));
        assert!(d.contains("141 cycles"));
        assert!(d.contains("256 queues"));
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_values_rejected() {
        let mut m = MachineConfig::default();
        m.issue_width = 0;
        assert!(m.validate().unwrap_err().contains("issue_width"));

        let mut m = MachineConfig::default();
        m.l2.assoc = 0;
        assert!(m.validate().unwrap_err().contains("l2"));

        let mut m = MachineConfig::default();
        m.sa.ports = 0;
        assert!(m.validate().unwrap_err().contains("sa.ports"));

        // Depth 0 would hang every produce on queue-full; queue-less
        // machines (pure single-thread) legitimately have no depth.
        let mut m = MachineConfig::default();
        m.sa.depths = vec![0];
        assert!(m.validate().unwrap_err().contains("sa.depth"));
        m.sa.num_queues = 0;
        assert_eq!(m.validate(), Ok(()));

        // A per-queue vector must cover every queue (or broadcast).
        let mut m = MachineConfig::default();
        m.sa.depths = vec![32, 1];
        assert!(m.validate().unwrap_err().contains("sa.depths"));
        let mut m = MachineConfig::default();
        m.sa.depths = Vec::new();
        assert!(m.validate().unwrap_err().contains("sa.depths"));
        let mut m = MachineConfig::default();
        m.sa.depths = vec![1; 256];
        m.sa.depths[17] = 0;
        assert!(m.validate().unwrap_err().contains("sa.depth"));
    }

    #[test]
    fn zero_penalty_with_zero_latency_sa_rejected() {
        let mut m = MachineConfig::default();
        m.branch_model = BranchModel::StaticBtfn { penalty: 0 };
        assert_eq!(m.validate(), Ok(()), "penalty 0 alone is fine");
        m.sa.latency = 0;
        assert!(m.validate().unwrap_err().contains("degenerate"));
        m.sa.num_queues = 0;
        assert_eq!(m.validate(), Ok(()), "queue-less machines have no SA wakeups");
        let mut m = MachineConfig::default();
        m.sa.latency = 0;
        assert_eq!(m.validate(), Ok(()), "zero-latency SA alone is fine");
    }

    #[test]
    fn degenerate_cache_set_math_is_total() {
        // Invalid geometry still yields a positive set count, so the
        // tag-only cache structures stay constructible.
        let c = CacheConfig { size_bytes: 1024, assoc: 0, line_bytes: 0, latency: 1 };
        assert!(c.validate().is_err());
        assert_eq!(c.num_sets(), 1024);
    }

    #[test]
    fn queue_depth_override() {
        let m = MachineConfig::default().with_queue_depth(1);
        assert_eq!(m.sa.depths, vec![1], "uniform default broadcasts");
        assert_eq!(m.sa.depth_of(0), 1);
        assert_eq!(m.sa.depth_of(255), 1);
    }

    #[test]
    fn per_queue_depths_override() {
        let mut depths = vec![1; 256];
        depths[3] = 32;
        let m = MachineConfig::default().with_queue_depths(depths);
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.sa.depth_of(3), 32);
        assert_eq!(m.sa.depth_of(4), 1);
        let d = m.describe();
        assert!(d.contains("entries"), "{d}");
    }

    #[test]
    fn describe_prints_depth_vector() {
        let d = MachineConfig::default().describe();
        assert!(d.contains("256 queues x [32] entries"), "{d}");
        let m = MachineConfig::default().with_queue_depths(vec![2, 5]);
        assert!(m.describe().contains("[2, 5] entries"), "{}", m.describe());
    }
}
