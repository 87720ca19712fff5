//! The adaptive mining front door: pick an algorithm (or let [`Method::Auto`]
//! pick one from dataset shape) and mine through a single call.
//!
//! ```
//! use dm_dataset::TransactionDb;
//! use dm_assoc::{mine, Method, MinSupport};
//!
//! let db = TransactionDb::new(vec![
//!     vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5],
//! ]);
//! let result = mine(&db, MinSupport::Count(2), Method::Auto).unwrap();
//! assert_eq!(result.itemsets.support_count(&[2, 3, 5]), Some(2));
//! ```
//!
//! Every method produces bit-identical [`FrequentItemsets`](crate::FrequentItemsets) (the
//! equivalence suite enforces it), so `Auto` is purely a performance
//! decision and is safe as the default.
//!
//! The rule follows a measured grid (`examples/auto_grid.rs`; the table
//! is in DESIGN.md, "Adaptive front door"): Quest T5–T30 shapes of 5K
//! to 100K transactions over 50 to 20 000 items, at minimum supports
//! from 20% down to 0.02%. Eclat, which counts L₂ in one horizontal
//! pass, is the fastest miner or within 2× of it on sparse data at any
//! support. On dense data (density — mean transaction length over the
//! item universe — of at least 5%) at a threshold of at most a fifth of
//! the density, nearly every item and pair is frequent and FP-Growth
//! beats Eclat by up to 3×; Auto sends those cells to FP-Growth. Below
//! 1000 transactions (`AUTO_SMALL_DB`) Apriori skips the set-up of the
//! other two.

use crate::{
    Apriori, AprioriHybrid, AprioriTid, Eclat, FpGrowth, ItemsetMiner, MinSupport, MiningResult,
};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome};
use dm_par::Parallelism;

/// Below this many transactions any algorithm finishes instantly; the
/// candidate-count-friendly Apriori wins by skipping tree/column setup.
const AUTO_SMALL_DB: usize = 1_000;
/// At or above this item density (mean transaction length over the item
/// universe) transactions share long prefixes and the FP-tree compresses
/// hard.
const AUTO_DENSE: f64 = 0.05;
/// On dense data, at or below this support threshold relative to the
/// density (the mean item's relative support) nearly every item and pair
/// is frequent: the lattice explodes and FP-Growth's shared prefixes
/// beat Eclat's tid-set intersections.
const AUTO_LOW_SUPPORT: f64 = 0.2;

/// Which mining algorithm the front door should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Choose between [`Method::Apriori`] (databases below 1000
    /// transactions), [`Method::FpGrowth`] (dense data at a support
    /// threshold well below the mean item's support) and [`Method::Eclat`]
    /// (all others); see the module docs for the measurements behind
    /// the rule. The decision is reported through the
    /// `assoc.auto.resolved` obs event.
    Auto,
    /// Level-wise Apriori with hash-tree counting.
    Apriori,
    /// AprioriTid: candidate-id lists after the first pass.
    AprioriTid,
    /// AprioriHybrid: Apriori early, TID lists once they fit.
    Hybrid,
    /// FP-tree mining without candidate generation.
    FpGrowth,
    /// Vertical tid-set intersection mining.
    Eclat,
}

impl Method {
    /// Resolves `Auto` against the dataset's shape; concrete methods
    /// return themselves. Errors only on an invalid support threshold.
    pub fn resolve(self, db: &TransactionDb, min_support: MinSupport) -> Result<Method, DataError> {
        if self != Method::Auto {
            return Ok(self);
        }
        let min_count = min_support.resolve(db)?;
        if db.len() < AUTO_SMALL_DB {
            return Ok(Method::Apriori);
        }
        let density = if db.n_items() == 0 {
            0.0
        } else {
            db.mean_len() / f64::from(db.n_items())
        };
        let rel_support = min_count as f64 / db.len() as f64;
        Ok(
            if density >= AUTO_DENSE && rel_support <= AUTO_LOW_SUPPORT * density {
                Method::FpGrowth
            } else {
                Method::Eclat
            },
        )
    }

    /// Builds the miner for a **concrete** method (resolve `Auto`
    /// first); `parallelism` is forwarded to the algorithms that shard.
    pub fn miner(self, min_support: MinSupport, parallelism: Parallelism) -> Box<dyn ItemsetMiner> {
        match self {
            Method::Auto | Method::Apriori => {
                Box::new(Apriori::new(min_support).with_parallelism(parallelism))
            }
            Method::AprioriTid => Box::new(AprioriTid::new(min_support)),
            Method::Hybrid => Box::new(AprioriHybrid::new(min_support)),
            Method::FpGrowth => Box::new(FpGrowth::new(min_support).with_parallelism(parallelism)),
            Method::Eclat => Box::new(Eclat::new(min_support).with_parallelism(parallelism)),
        }
    }

    /// The `name()` the resolved miner will report.
    pub fn label(self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Apriori => "apriori",
            Method::AprioriTid => "apriori_tid",
            Method::Hybrid => "apriori_hybrid",
            Method::FpGrowth => "fp-growth",
            Method::Eclat => "eclat",
        }
    }
}

/// Mines `db` with the chosen (or auto-selected) algorithm under
/// `guard`. This is the recommended governed entry point; the result is
/// identical to constructing the concrete miner by hand.
pub fn mine_governed(
    db: &TransactionDb,
    min_support: MinSupport,
    method: Method,
    guard: &Guard,
) -> Result<Outcome<MiningResult>, DataError> {
    mine_governed_with(db, min_support, method, Parallelism::Sequential, guard)
}

/// [`mine_governed`] with an explicit [`Parallelism`] for the sharded
/// phases (results are bit-identical across settings).
pub fn mine_governed_with(
    db: &TransactionDb,
    min_support: MinSupport,
    method: Method,
    parallelism: Parallelism,
    guard: &Guard,
) -> Result<Outcome<MiningResult>, DataError> {
    let resolved = method.resolve(db, min_support)?;
    let obs = guard.obs();
    if method == Method::Auto && obs.enabled() {
        obs.event("assoc.auto.resolved", resolved.label());
    }
    resolved
        .miner(min_support, parallelism)
        .mine_governed(db, guard)
}

/// Mines `db` with the chosen (or auto-selected) algorithm, ungoverned.
/// This is the recommended entry point for straightforward use.
pub fn mine(
    db: &TransactionDb,
    min_support: MinSupport,
    method: Method,
) -> Result<MiningResult, DataError> {
    Ok(mine_governed(db, min_support, method, &Guard::unlimited())?.result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn every_method_agrees_on_the_paper_example() {
        let db = paper_db();
        let reference = mine(&db, MinSupport::Count(2), Method::Apriori).unwrap();
        for method in [
            Method::Auto,
            Method::AprioriTid,
            Method::Hybrid,
            Method::FpGrowth,
            Method::Eclat,
        ] {
            let result = mine(&db, MinSupport::Count(2), method).unwrap();
            assert_eq!(result.itemsets, reference.itemsets, "{method:?}");
        }
    }

    #[test]
    fn auto_picks_apriori_for_tiny_databases() {
        let resolved = Method::Auto
            .resolve(&paper_db(), MinSupport::Count(2))
            .unwrap();
        assert_eq!(resolved, Method::Apriori);
    }

    #[test]
    fn auto_picks_fp_growth_for_dense_data_at_low_support() {
        // 2000 transactions over 40 items: density 0.5.
        let dense = TransactionDb::new(
            (0..2000u32)
                .map(|t| (0..40).filter(|i| (t + i) % 2 == 0).collect())
                .collect(),
        );
        let resolve = |s| {
            Method::Auto
                .resolve(&dense, MinSupport::Fraction(s))
                .unwrap()
        };
        assert_eq!(resolve(0.01), Method::FpGrowth);
        // The cut is at AUTO_LOW_SUPPORT × density = 0.1.
        assert_eq!(resolve(0.09), Method::FpGrowth);
        assert_eq!(resolve(0.11), Method::Eclat);
    }

    #[test]
    fn auto_picks_eclat_for_sparse_data_at_any_support() {
        // Exactly AUTO_SMALL_DB transactions of 6 over 1000 items.
        let sparse = TransactionDb::new(
            (0..AUTO_SMALL_DB as u32)
                .map(|t| (0..6).map(|k| (t * 7 + k * 131) % 1000).collect())
                .collect(),
        );
        for s in [0.05, 0.001] {
            assert_eq!(
                Method::Auto
                    .resolve(&sparse, MinSupport::Fraction(s))
                    .unwrap(),
                Method::Eclat,
                "minsup {s}"
            );
        }
        // An invalid threshold still errors.
        assert!(Method::Auto
            .resolve(&sparse, MinSupport::Fraction(1.5))
            .is_err());
    }

    #[test]
    fn concrete_methods_resolve_to_themselves() {
        let db = paper_db();
        for method in [
            Method::Apriori,
            Method::AprioriTid,
            Method::Hybrid,
            Method::FpGrowth,
            Method::Eclat,
        ] {
            assert_eq!(method.resolve(&db, MinSupport::Count(2)).unwrap(), method);
        }
    }
}
