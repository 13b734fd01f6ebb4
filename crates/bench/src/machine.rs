//! Machine profiles for the Case Study ④ contrast (paper Fig. 8).
//!
//! The paper compares an Intel Skylake node (Cluster A, 40 processes) with
//! an Intel Cascade Lake node (Cluster C, 48 processes). This environment
//! has one machine, so the profiles preserve the *worker-count ratio*
//! (40 : 48 → 5 : 6 by default, scaled to stay sane on small hosts) while
//! the ISA paths are identical — see DESIGN.md's substitution table for why
//! the cross-design shape survives and the generational 1.5× cannot.

/// A named worker-count profile standing in for one of the paper's nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MachineProfile {
    /// Profile name as reported.
    pub name: &'static str,
    /// The paper's process count on that node.
    pub paper_processes: usize,
    /// Worker threads used here (ratio-preserving).
    pub threads: usize,
}

/// The Skylake (Cluster A) profile.
pub fn skylake() -> MachineProfile {
    MachineProfile {
        name: "skylake-40p",
        paper_processes: 40,
        threads: scaled(40),
    }
}

/// The Cascade Lake (Cluster C) profile.
pub fn cascade_lake() -> MachineProfile {
    MachineProfile {
        name: "cascadelake-48p",
        paper_processes: 48,
        threads: scaled(48),
    }
}

/// Scale a paper process count down by 8× (40 → 5, 48 → 6) so that a
/// single-machine run preserves the ratio without drowning in
/// oversubscription noise.
fn scaled(paper: usize) -> usize {
    (paper / 8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_preserved() {
        let s = skylake();
        let c = cascade_lake();
        assert_eq!(s.threads * c.paper_processes, c.threads * s.paper_processes);
        assert!(c.threads > s.threads);
    }
}
