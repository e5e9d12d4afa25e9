//! Cloud pricing models.
//!
//! The Bismar contribution (§III-B of the paper) decomposes the bill of
//! running the storage service in the cloud into **three parts**: VM
//! instances cost, storage cost and network cost. A [`PricingModel`] holds
//! the unit prices of those three resources; presets encode 2013-era Amazon
//! EC2 on-demand prices (the era of the paper's experiments) and a
//! Grid'5000 accounting model that applies the same rates so the two
//! platforms' bills are comparable, as the paper does.

use serde::{Deserialize, Serialize};

/// Unit prices for the three bill components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// Price of one VM instance-hour, in USD (e.g. an m1.large).
    pub instance_hour_usd: f64,
    /// Price of one GB-month of provisioned storage, in USD.
    pub storage_gb_month_usd: f64,
    /// Price of one million storage I/O requests, in USD.
    pub storage_io_million_usd: f64,
    /// Price of transferring one GB between availability zones /
    /// datacenters of the same region, in USD.
    pub transfer_inter_dc_gb_usd: f64,
    /// Price of transferring one GB between regions, in USD.
    pub transfer_inter_region_gb_usd: f64,
    /// Price of transferring one GB inside a datacenter (free on EC2).
    pub transfer_intra_dc_gb_usd: f64,
}

impl PricingModel {
    /// Amazon EC2 on-demand prices circa 2012/2013 (us-east-1):
    /// m1.large at $0.26/h, EBS standard volumes at $0.10/GB-month and
    /// $0.10 per million I/O requests, $0.01/GB between availability zones,
    /// $0.02/GB between regions.
    pub fn ec2_2013() -> Self {
        PricingModel {
            instance_hour_usd: 0.26,
            storage_gb_month_usd: 0.10,
            storage_io_million_usd: 0.10,
            transfer_inter_dc_gb_usd: 0.01,
            transfer_inter_region_gb_usd: 0.02,
            transfer_intra_dc_gb_usd: 0.0,
        }
    }

    /// Grid'5000 is a free research testbed; to make its bills comparable
    /// with EC2 (as the paper's cost analysis does) the same 2013 EC2 rates
    /// are applied to the resources the experiment actually consumed.
    pub fn grid5000_accounting() -> Self {
        Self::ec2_2013()
    }

    /// Validate that no price is negative.
    pub fn validate(&self) -> Result<(), String> {
        let prices = [
            self.instance_hour_usd,
            self.storage_gb_month_usd,
            self.storage_io_million_usd,
            self.transfer_inter_dc_gb_usd,
            self.transfer_inter_region_gb_usd,
            self.transfer_intra_dc_gb_usd,
        ];
        if prices.iter().any(|p| *p < 0.0 || !p.is_finite()) {
            Err("prices must be non-negative and finite".into())
        } else {
            Ok(())
        }
    }
}

impl Default for PricingModel {
    fn default() -> Self {
        Self::ec2_2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(PricingModel::ec2_2013().validate().is_ok());
        assert!(PricingModel::grid5000_accounting().validate().is_ok());
        assert_eq!(PricingModel::default(), PricingModel::ec2_2013());
    }

    #[test]
    fn ec2_rates_match_2013_era() {
        let p = PricingModel::ec2_2013();
        assert!((p.instance_hour_usd - 0.26).abs() < 1e-9);
        assert!(
            p.transfer_intra_dc_gb_usd == 0.0,
            "intra-AZ transfer is free"
        );
        assert!(p.transfer_inter_region_gb_usd > p.transfer_inter_dc_gb_usd);
    }

    #[test]
    fn negative_prices_rejected() {
        let mut p = PricingModel::ec2_2013();
        p.instance_hour_usd = -1.0;
        assert!(p.validate().is_err());
        let mut p = PricingModel::ec2_2013();
        p.storage_gb_month_usd = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let p = PricingModel::ec2_2013();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str::<PricingModel>(&json).unwrap());
    }
}
