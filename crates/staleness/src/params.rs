//! Inputs to the stale-read probability model.
//!
//! The paper's Figure 1 defines the situation that leads to a stale read:
//! a read started at `Xr` may be stale if `Xr` falls inside the window
//! between the start of the last write `Xw` and the end of that write's
//! propagation to the other replicas `Xw + Tp`. The probability of that
//! situation — and of the read then actually hitting only not-yet-updated
//! replicas — is computed from:
//!
//! * the write arrival rate λw (writes/s, Poisson),
//! * the read arrival rate λr (reads/s, used for absolute stale counts),
//! * the replication factor `N`,
//! * the read consistency level `R` (replicas contacted per read) and write
//!   consistency level `W` (replica acks awaited per write),
//! * the time to apply the write on the first replica `T`, and
//! * the propagation delay to each remaining replica (`Tp`), a
//!   [`DelayDistribution`].

use concord_sim::DelayDistribution;
use serde::{Deserialize, Serialize};

/// Full parameter set for a stale-read estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StalenessParams {
    /// Replication factor `N`.
    pub n_replicas: u32,
    /// Read consistency level: number of replicas contacted per read.
    pub read_level: u32,
    /// Write consistency level: number of replica acks awaited per write.
    pub write_level: u32,
    /// Mean read arrival rate λr, reads per second.
    pub read_rate: f64,
    /// Mean write arrival rate λw, writes per second.
    pub write_rate: f64,
    /// Time to apply a write on the first replica, `T`, in milliseconds.
    pub first_write_ms: f64,
    /// How long a write takes to reach each remaining replica (`Tp`): every
    /// replica draws its own delay. A constant is the paper's single `Tp`,
    /// what Harmony and Bismar estimate with.
    pub propagation: DelayDistribution,
}

impl StalenessParams {
    /// Convenience constructor with a constant propagation delay.
    pub fn basic(
        n_replicas: u32,
        read_level: u32,
        write_level: u32,
        read_rate: f64,
        write_rate: f64,
        first_write_ms: f64,
        propagation_ms: f64,
    ) -> Self {
        StalenessParams {
            n_replicas,
            read_level,
            write_level,
            read_rate,
            write_rate,
            first_write_ms,
            propagation: DelayDistribution::Constant { ms: propagation_ms },
        }
    }

    /// Validate structural constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_replicas == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.read_level == 0 || self.read_level > self.n_replicas {
            return Err(format!(
                "read level must be in 1..={}, got {}",
                self.n_replicas, self.read_level
            ));
        }
        if self.write_level == 0 || self.write_level > self.n_replicas {
            return Err(format!(
                "write level must be in 1..={}, got {}",
                self.n_replicas, self.write_level
            ));
        }
        if self.read_rate < 0.0 || self.write_rate < 0.0 {
            return Err("rates must be non-negative".into());
        }
        if self.first_write_ms < 0.0 {
            return Err("first-write time must be non-negative".into());
        }
        self.propagation
            .validate()
            .map_err(|e| format!("propagation delay: {e}"))
    }

    /// True if the levels form a strict quorum (R + W > N), in which case
    /// every read overlaps the acknowledged write set and no acknowledged
    /// write can be missed.
    pub fn is_strict_quorum(&self) -> bool {
        self.read_level + self.write_level > self.n_replicas
    }

    /// Return a copy with a different read level (used by the level solver).
    pub fn with_read_level(&self, read_level: u32) -> Self {
        StalenessParams {
            read_level,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StalenessParams {
        StalenessParams::basic(5, 1, 1, 1000.0, 100.0, 1.0, 40.0)
    }

    #[test]
    fn validation_accepts_sensible_params() {
        assert!(params().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_levels() {
        let mut p = params();
        p.read_level = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.read_level = 6;
        assert!(p.validate().is_err());
        let mut p = params();
        p.write_level = 9;
        assert!(p.validate().is_err());
        let mut p = params();
        p.n_replicas = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.write_rate = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_bad_propagation_delay() {
        let mut p = params();
        p.propagation = DelayDistribution::LogNormal {
            median_ms: f64::NAN,
            sigma: 0.5,
        };
        let err = p.validate().unwrap_err();
        assert!(err.starts_with("propagation delay:"), "{err}");
    }

    #[test]
    fn quorum_detection() {
        let mut p = params();
        assert!(!p.is_strict_quorum());
        p.read_level = 3;
        p.write_level = 3;
        assert!(p.is_strict_quorum(), "3+3 > 5");
        p.write_level = 2;
        assert!(!p.is_strict_quorum(), "3+2 = 5 is not strict");
    }

    #[test]
    fn deterministic_survival_is_a_step() {
        let m = DelayDistribution::constant(30.0);
        assert_eq!(m.survival(0.0), 1.0);
        assert_eq!(m.survival(29.9), 1.0);
        assert_eq!(m.survival(30.0), 0.0);
        assert_eq!(m.survival(-5.0), 1.0);
        assert_eq!(m.mean_ms(), 30.0);
    }

    #[test]
    fn exponential_survival_decays() {
        let m = DelayDistribution::Exponential { mean_ms: 10.0 };
        assert!((m.survival(0.0) - 1.0).abs() < 1e-12);
        assert!((m.survival(10.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert!(m.survival(100.0) < 1e-4);
    }

    #[test]
    fn general_survival_variants() {
        let shifted = DelayDistribution::wan(50.0, 10.0);
        assert_eq!(shifted.survival(10.0), 1.0);
        assert!((shifted.survival(60.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn with_read_level_only_changes_level() {
        let p = params().with_read_level(3);
        assert_eq!(p.read_level, 3);
        assert_eq!(p.n_replicas, 5);
        assert_eq!(p.write_rate, 100.0);
    }

    #[test]
    fn serde_round_trip() {
        let p = params();
        let json = serde_json::to_string(&p).unwrap();
        let back: StalenessParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
