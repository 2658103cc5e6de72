//! The one resilient executor behind every grid of independent items.
//!
//! The fault campaign's (severity, seed) cells, the Table 4 sweep's
//! design points and the evaluation suite's networks are all grids of
//! independent items. [`run`] fans such a grid out onto the
//! `refocus-par` pool and returns one [`Outcome`] per item, in input
//! order, under one policy:
//!
//! * **Replay** — an item whose key is already in the [`Journal`] is
//!   returned verbatim, costs no budget, and is never recomputed.
//! * **Budget** — [`RunBudget`]'s deadline and fresh-item quota are
//!   checked before an item starts; an item past either bound becomes
//!   [`Outcome::Skipped`], never silently dropped.
//! * **Panic isolation** — a panicking attempt becomes
//!   [`SimError::WorkerPanic`] in that item's slot while every other
//!   item completes.
//! * **Retry** — a transient failure ([`FailureKind::is_transient`]) is
//!   retried up to [`RunBudget::retries`] times; the attempt index is
//!   passed to the item function so a retry can draw a fresh
//!   deterministic stream.
//! * **Journaling** — a completed item is appended to the journal at
//!   once, so a killed run resumes where it stopped.
//!
//! This module is the only code that locks a journal or catches a
//! worker panic; callers build their items and map outcomes onto their
//! own report types.

use crate::checkpoint::Checkpoint;
use crate::error::{FailureKind, SimError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cooperative resource bounds for one grid invocation.
///
/// Bounds are checked *between* items — an item that has started always
/// runs to completion (or failure), so budget enforcement never tears a
/// measurement. Which items land beyond a bound depends on scheduling,
/// but item *values* never do; a later run against the same journal
/// completes the remainder bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole invocation. Items not started
    /// before it passes are recorded as skipped.
    pub max_wall_clock: Option<Duration>,
    /// Maximum number of *freshly computed* items this invocation may
    /// run (journaled items replayed from a checkpoint are free). Lets a
    /// caller run "N more cells" incrementally against one journal.
    pub max_cells: Option<usize>,
    /// How many times a transient failure ([`SimError::is_transient`])
    /// is retried before the item is recorded as failed.
    pub retries: u32,
}

impl Default for RunBudget {
    /// Unlimited time and items, one retry per transient failure.
    fn default() -> Self {
        RunBudget {
            max_wall_clock: None,
            max_cells: None,
            retries: 1,
        }
    }
}

impl RunBudget {
    /// No deadline, no quota, no retries: every failure is final on its
    /// first occurrence.
    pub fn strict() -> Self {
        RunBudget {
            max_wall_clock: None,
            max_cells: None,
            retries: 0,
        }
    }

    /// Replaces the wall-clock deadline.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall_clock = Some(limit);
        self
    }

    /// Replaces the fresh-item quota.
    pub fn with_max_cells(mut self, cells: usize) -> Self {
        self.max_cells = Some(cells);
        self
    }

    /// Replaces the transient-failure retry count.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

/// Why an item was skipped without being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The [`RunBudget::max_wall_clock`] deadline had passed.
    Deadline,
    /// The [`RunBudget::max_cells`] quota was already consumed.
    CellLimit,
}

/// A failed attempt as reports record it: the serializable
/// classification and the rendered message (the typed [`SimError`]
/// borrows `&'static str` diagnostics and cannot round-trip JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Classification; decides whether the attempt is retried.
    pub kind: FailureKind,
    /// Rendered message.
    pub error: String,
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        Failure {
            kind: e.kind(),
            error: e.to_string(),
        }
    }
}

/// The result of one grid item.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// Computed in this run, or replayed from the journal.
    Done(T),
    /// Every permitted attempt failed; the last failure is kept.
    Failed {
        /// Classification of the final failure.
        kind: FailureKind,
        /// Rendered message of the final failure.
        error: String,
        /// Attempts made, including the first.
        attempts: u32,
    },
    /// The budget did not allow the item to start.
    Skipped(SkipReason),
}

/// A checkpoint journal plus the key each item is journaled under.
#[derive(Debug)]
pub struct Journal<'a, I, T> {
    /// Where completed items are replayed from and appended to.
    pub checkpoint: &'a mut Checkpoint<T>,
    /// The journal key of an item.
    pub key: fn(&I) -> String,
}

/// The span and counter names a grid reports under, so each caller
/// keeps its own observability taxonomy.
#[derive(Debug, Clone, Copy)]
pub struct Probes<I> {
    /// Span opened around each item: journal lookup, budget check and
    /// every attempt.
    pub item: &'static str,
    /// The item span's detail text.
    pub label: fn(&I) -> String,
    /// Counter bumped once per item replayed from the journal.
    pub replayed: &'static str,
    /// Counter bumped once per item the budget skipped.
    pub skipped: &'static str,
}

/// Runs `f(item, attempt)` over every item on the worker pool and
/// returns one [`Outcome`] per item, in input order.
///
/// `journal`, when given, replays journaled items and records newly
/// completed ones; `probes`, when given, names the per-item span and
/// the replay and skip counters.
pub fn run<I, T, E, F>(
    items: &[I],
    journal: Option<Journal<'_, I, T>>,
    budget: &RunBudget,
    probes: Option<&Probes<I>>,
    f: F,
) -> Vec<Outcome<T>>
where
    I: Sync,
    T: Serialize + Deserialize + Clone + Send,
    E: Into<Failure>,
    F: Fn(&I, u32) -> Result<T, E> + Sync,
{
    let deadline = budget.max_wall_clock.map(|limit| Instant::now() + limit);
    let fresh = AtomicUsize::new(0);
    let count = |name: fn(&Probes<I>) -> &'static str| {
        if let Some(p) = probes {
            refocus_obs::counter(name(p), 1);
        }
    };
    // Workers replay journaled items and append new ones; the lock is
    // held only around lookups/appends, never across an item's
    // computation, and no code panics while holding it.
    let journal = journal.map(|j| (j.key, Mutex::new(j.checkpoint)));
    const POISONED: &str = "journal lock never poisoned";

    refocus_par::par_map_indexed(items, |index, item| {
        let _span = match probes {
            Some(p) => refocus_obs::span_with(p.item, || (p.label)(item)),
            None => refocus_obs::Span::disabled(),
        };
        let journal = journal
            .as_ref()
            .map(|(key_of, checkpoint)| (key_of(item), checkpoint));
        if let Some((key, checkpoint)) = &journal {
            if let Some(value) = checkpoint.lock().expect(POISONED).get(key) {
                count(|p| p.replayed);
                return Outcome::Done(value.clone());
            }
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            count(|p| p.skipped);
            return Outcome::Skipped(SkipReason::Deadline);
        }
        if let Some(max) = budget.max_cells {
            if fresh.fetch_add(1, Ordering::Relaxed) >= max {
                count(|p| p.skipped);
                return Outcome::Skipped(SkipReason::CellLimit);
            }
        }

        let mut attempt = 0u32;
        loop {
            let result = match refocus_par::catch_item(|| f(item, attempt)) {
                Ok(result) => result.map_err(Into::into),
                Err(message) => Err(SimError::WorkerPanic {
                    item: index,
                    message,
                }
                .into()),
            };
            match result {
                Ok(value) => {
                    if let Some((key, checkpoint)) = &journal {
                        let appended = checkpoint
                            .lock()
                            .expect(POISONED)
                            .append(key, value.clone());
                        if let Err(e) = appended {
                            return Outcome::Failed {
                                kind: FailureKind::Checkpoint,
                                error: e.to_string(),
                                attempts: attempt + 1,
                            };
                        }
                    }
                    return Outcome::Done(value);
                }
                Err(failure) if failure.kind.is_transient() && attempt < budget.retries => {
                    attempt += 1;
                }
                Err(Failure { kind, error }) => {
                    return Outcome::Failed {
                        kind,
                        error,
                        attempts: attempt + 1,
                    };
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_item_leaves_every_other_slot_intact() {
        let items: Vec<u32> = (0..64).collect();
        let f = |&x: &u32, _attempt: u32| -> Result<u32, SimError> {
            if x % 13 == 5 {
                panic!("poisoned item {x}");
            }
            Ok(x * 2)
        };
        for threads in [1, 8] {
            let outcomes = refocus_par::with_threads(threads, || {
                run(&items, None, &RunBudget::strict(), None, f)
            });
            for (i, outcome) in outcomes.into_iter().enumerate() {
                if i % 13 == 5 {
                    assert_eq!(
                        outcome,
                        Outcome::Failed {
                            kind: FailureKind::WorkerPanic,
                            error: format!("worker panicked on item {i}: poisoned item {i}"),
                            attempts: 1,
                        },
                        "{threads} threads"
                    );
                } else {
                    assert_eq!(outcome, Outcome::Done(i as u32 * 2), "{threads} threads");
                }
            }
        }
    }
}
