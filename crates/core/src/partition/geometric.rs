//! The geometrical partitioner and its inner solve.
//!
//! The algorithm is two nested bisections: an outer one over the time
//! `T`, and, for every `T` it tries, one inner bisection per process
//! for the size `dᵢ(T)` with `timeᵢ(dᵢ) = T`. The outer loop only asks
//! whether `Σ dᵢ(T) < D`. Done literally that is ≈ 40 outer steps ×
//! `p` inner bisections × ≈ 31 levels of [`Model::time`] each, nearly
//! all of it repeated or unneeded. This module makes the same
//! decisions — every `mid`, every tolerance test, every `signum`
//! comparison of [`fupermod_num::solve::bisect`], the same
//! bracket-doubling and `time(0)` pre-checks, the same in-order
//! floating-point sum — from a few dozen evaluations per process, and
//! returns the same bits. What is saved, and what each saving rests on:
//!
//! * **Repeated abscissae.** All inner bisections of one process start
//!   from `[0, hi]`, so the descents for consecutive `T` visit the same
//!   `mid`s until their decisions first differ. Each [`Descent`]
//!   remembers `time(mid)` along its latest path (and its doubling
//!   probes and `time(0)`) and reads a value back when the same
//!   abscissa comes up again. That is memoisation, not approximation,
//!   and requires only that **`Model::time` is pure** — the same `x`
//!   gives the same bits for as long as the model is not updated, which
//!   the shared borrow of the models guarantees for the length of one
//!   `partition` call. What is remembered lives for exactly that call.
//!
//! * **Repeated decisions.** An iteration reads `T` only to compare it
//!   with `time(mid)`, so a whole descent goes the same way for every
//!   `T` between the largest `time(mid)` that sent it up and the
//!   smallest that sent it down. While `T` stays in there the descent
//!   is simply taken up where the previous `T` left it
//!   ([`InnerSolve::start`] has the details).
//!
//! * **Repeated walks.** When `T` leaves that window the descent begins
//!   again, but its first levels still turn the way the remembered
//!   path did, down to the first `time(mid)` on the other side of the
//!   new `T`. Walking them again one step at a time would only read
//!   memos through a serial chain of midpoints. Instead the descent
//!   resumes at the deepest level `k` whose stage — bracket, and the
//!   `after`/`upto` window of the levels above it — is certain: `T`
//!   lies inside the window, with both ends farther than `f_tol`, so
//!   every skipped level turns as remembered and none returns; the
//!   bracket is wider than `x_tol`, and in a comparison's first sweep
//!   at least as wide as the sweep steps, so every skipped level would
//!   have been stepped; and `k ≤ known`. Each condition only fails
//!   more as `k` grows, so a binary search over stages checkpointed
//!   every `STRIDE` levels finds the deepest certain one, and a replay
//!   of `step`'s own test and arithmetic over the remembered `time(mid)`
//!   takes the descent the last few levels to where it first turns
//!   differently. The state it lands in is the one the steps would
//!   have left — same bracket, same window, same evaluations after.
//!
//! * **Unneeded depth.** The outer comparison needs the truth of
//!   `Σ dᵢ(T) < D`, not the sum. Two facts make a partial answer
//!   exact: (1) *a bisection's result lies in its current bracket* —
//!   every later `mid` is `0.5·(lo + hi)` of a nested bracket, and the
//!   rounded midpoint of two floats lies between them; (2) *the
//!   in-order floating-point sum is monotone in every addend* —
//!   round-to-nearest never reorders, so replacing an addend by a
//!   larger one cannot make `((0 + d₁) + d₂) + …` smaller. Hence the
//!   same in-order sum taken over the brackets' upper ends bounds the
//!   full-depth sum from above, and over their lower ends from below:
//!   if the first is `< D` so is the real one, if the second is `≥ D`
//!   so is the real one. The descents are advanced, widest bracket
//!   first, until one of the two holds; only the final sizes at `T*`
//!   run to full depth.
//!
//! * **Unneeded comparisons.** The outer bisection asks about ≈ 40
//!   `mid`s, but its answers are those of one threshold: `Σ dᵢ(T)` is
//!   non-decreasing in `T` (the lemma below), so once the sum was found
//!   below `D` at some `ta` and not below at some `tb`, every `mid ≤ ta`
//!   is below and every `mid ≥ tb` is not. A `mid` strictly between is
//!   not compared at first: the comparison goes to where the line
//!   through the estimates of `Σ dᵢ − D` at `ta` and `tb` crosses zero
//!   (regula falsi; an end that stays put twice in a row has its
//!   estimate halved — the Illinois rule — so the guesses cannot crawl
//!   towards it). An estimate is the middle of the bracket sums that
//!   decided its comparison, so it lies on the sum's side of `D`. That
//!   narrows `(ta, tb)` around the threshold in a few comparisons,
//!   after which most `mid`s are answered without one. A `mid` is
//!   compared itself after [`PROBES`] guesses for it, or once two
//!   comparisons in a row moved the same end and found the same sum,
//!   where `Σ dᵢ` is down to its steps and a line guesses no better.
//!   Every answer, given or computed, is the comparison's truth, so
//!   `T*` and the sizes keep their bits; guesses lie strictly inside
//!   `(ta, tb)`, below a `T` already compared without error, so no
//!   doubling can run out where the plain bisection's did not.
//!
//!   *Lemma.* With `max_iter ≥ X_TOL_LEVELS` and a `time(0)` that is
//!   not NaN, the inner result `dᵢ(t)` — bracket doubling, the
//!   pre-checks, then `bisect` — is non-decreasing in `t`. Take
//!   `t₁ < t₂`. (1) *Same top.* At the first level where the two
//!   descents act differently, `fl(time(mid) − t)` is non-increasing in
//!   `t` and `f_tol` non-decreasing, and a level goes up iff
//!   `time(mid) < t`; so the pair of actions is (down, up), (down,
//!   return) or (return, up), each of which leaves `r₁ ≤ mid ≤ r₂`.
//!   (2) *Larger top.* If `t₂` doubled past `t₁`'s `top`, the first `mid`
//!   of `[0, 2ᵏ·top]` is a doubling probe whose time is below `t₂`, so
//!   that level goes up or returns: `r₂ ≥ top ≥ r₁`. (3) *Pre-checks.*
//!   They return 0, the least result, or `top`, the bracket's end. A
//!   NaN `time(0)` breaks (1) — every level then goes down unless it
//!   returns — so with one, or with `max_iter` below 31, no guess is
//!   made and every `mid` is compared, as the plain bisection does.
//!   The in-order sum is monotone in every addend (above), so the
//!   lemma carries over to `Σ dᵢ(T)`.
//!
//! Stopping a descent early could hide the `NoConvergence` error its
//! remaining levels would have hit. It cannot: the inner bracket is
//! `[0, hi]` with `x_tol = 1e-9·hi`, and `2⁻³⁰ < 1e-9 < 2⁻²⁹` with 7 %
//! to spare against roundings of relative size `2⁻⁵²`, so the width
//! test first passes, and always passes, on the 31st level
//! ([`X_TOL_LEVELS`]). With `max_iter ≥ 31` no descent can fail; with
//! less, every descent is run to its end before the sums are compared,
//! so an input that was an error stays one.
//!
//! Each saving above is argued, not measured, and an argument can be
//! wrong where a test is blind. That is why the test-only `oracle`
//! module keeps the solve this one replaced: plain `bisect` calls, run
//! to full depth for every `T`. It is the reference the arguments are
//! tested against: the identity proptests draw small cases of every
//! kind of model and outcome, and large ones (up to 256 processes of
//! up to 32 points, whose deep descents most new `T` restart), and
//! demand the oracle's bits; fixed seeds add the rare near ties that
//! a resume rule too bold about `f_tol` would skip; and the lemma is
//! tested on the oracle's own inner solve, at times one ulp apart.

use fupermod_num::NumError;

use super::{check_inputs, finalize, Distribution, Partitioner};
use crate::model::Model;
use crate::{telemetry, CoreError};

/// The geometrical data-partitioning algorithm of Lastovetsky–Reddy
/// \[10\]: iterative bisection of the speed functions with lines through
/// the origin of the (size, speed) plane.
///
/// A line through the origin with slope `1/T` intersects process `i`'s
/// speed function at the size `dᵢ(T)` that takes exactly `T` seconds
/// (`dᵢ / s(dᵢ) = T`). The optimum is the `T*` whose intersections sum
/// to the total workload: `Σ dᵢ(T*) = D`, and the algorithm bisects on
/// `T`. Convergence relies on the monotone time functions the
/// restricted [`PiecewiseModel`](crate::model::PiecewiseModel)
/// guarantees; the implementation is formulated directly in terms of
/// time functions, so any model with a non-decreasing `time(x)` works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricPartitioner {
    /// Tolerance on the bisection over `T`, relative to `T` itself.
    pub rel_tol: f64,
    /// Iteration cap for each bisection.
    pub max_iter: usize,
}

impl Default for GeometricPartitioner {
    fn default() -> Self {
        Self {
            rel_tol: 1e-10,
            max_iter: 200,
        }
    }
}

/// The level on which an inner bisection's width test first passes,
/// and always passes (see the module docs): a descent is at most this
/// deep, and with this many iterations allowed it cannot fail.
const X_TOL_LEVELS: usize = 31;

/// Levels between two checkpoints of a descent's remembered path.
const STRIDE: usize = 4;

/// Threshold probes the outer bisection may spend on one `mid` before
/// it compares at the `mid` itself.
const PROBES: usize = 4;

/// What one `partition` call did, summed in locals and published once
/// at its end.
#[derive(Default)]
struct Tally {
    model_evals: u64,
    outer_iterations: u64,
    decided_early: u64,
    steps: u64,
}

/// Where a descent stands after some levels: its bracket, and the `t`
/// for which the descent would have come the same way — above `after`,
/// the largest `time(mid)` that sent it up, and not above `upto`, the
/// smallest that sent it down (see [`InnerSolve::start`]).
#[derive(Clone, Copy)]
struct Stage {
    lo: f64,
    hi: f64,
    after: f64,
    upto: f64,
}

impl Stage {
    /// Level 0 of a descent from `[0, top]`.
    fn fresh(top: f64) -> Self {
        Self {
            lo: 0.0,
            hi: top,
            after: f64::NEG_INFINITY,
            upto: f64::INFINITY,
        }
    }

    fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// The next level's stage, after keeping the upper (`up`) or lower
    /// half of a bracket whose `time(mid)` is `at_mid`.
    fn halve(&mut self, up: bool, at_mid: f64) {
        let mid = self.mid();
        if up {
            self.lo = mid;
            self.after = self.after.max(at_mid);
        } else {
            self.hi = mid;
            // A NaN bounds nothing (and `min` drops it).
            self.upto = self.upto.min(at_mid);
        }
    }
}

/// What one iteration of `bisect` does for `t` on a bracket `width`
/// wide whose `time(mid)` is `at_mid`: `None` if it returns `mid`,
/// else whether it keeps the upper half.
fn decide(width: f64, x_tol: f64, at_mid: f64, t: f64, flo: f64) -> Option<bool> {
    let fmid = at_mid - t;
    if fmid.abs() <= f_tol(t) || width <= x_tol {
        None
    } else {
        Some(fmid.signum() == flo.signum())
    }
}

/// One process's inner bisection for the size that takes `t` seconds —
/// `bisect(|x| time(x) − t, 0, hi, …)` after the bracket-doubling and
/// `time(0)` pre-checks — held as a value, so that it can be advanced a
/// level at a time and taken up again for the next `t`, together with
/// what it has learnt about the process's time function.
struct Descent<'m> {
    model: &'m dyn Model,

    // Known for the whole call.
    /// Where the upper bracket starts: the last experimental size.
    hi0: f64,
    /// `time(0)`, once asked for.
    at_zero: Option<f64>,
    /// `probes[j] = time(hi0 · 2ʲ)`, as far as any doubling has gone.
    probes: Vec<f64>,

    /// The path of the latest descent: it started from `[0, top]`,
    /// `turns` has bit `k` set where it kept the upper half after
    /// level `k`, and the first `known` entries of this process's row
    /// of [`InnerSolve::at_mids`] hold `time(mid)` of its levels. A
    /// bracket follows from the starting bracket and the turns taken,
    /// and a `mid` from its bracket, so a descent that has made the
    /// same turns so far is about to visit the same abscissa. The
    /// first `saved` entries of its row of [`InnerSolve::checkpoints`]
    /// hold its stages at levels `STRIDE`, `2·STRIDE`, ….
    top: f64,
    turns: u32,
    known: u32,
    saved: u32,

    // The descent itself: `level` iterations from `[0, top]`.
    level: u32,
    at: Stage,
    /// `time(0) − t`, where `bisect`'s `flo` starts. Only its sign is
    /// read, and that never changes: a level keeps the upper half only
    /// when its residual has that sign. It is also the sign every `t`
    /// that gets past the pre-checks gives, so it need not follow `t`.
    flo: f64,
    /// The root, once a level (or a pre-check) has returned it.
    root: Option<f64>,
}

/// In-order sums of the descents' brackets — a finished descent's is
/// its root twice — which bound the full-depth sum from both sides.
struct Brackets {
    below: f64,
    above: f64,
    /// Width of the widest bracket still open, if any is.
    widest: Option<f64>,
}

/// The inner solves of one `partition` call.
struct InnerSolve<'m, 't> {
    descents: Vec<Descent<'m>>,
    /// `levels` entries per process, process-major: see [`Descent::top`].
    at_mids: Vec<f64>,
    /// `levels / STRIDE` entries per process, process-major: entry `c`
    /// is the stage at level `STRIDE·(c + 1)` of the remembered path.
    checkpoints: Vec<Stage>,
    levels: usize,
    max_iter: usize,
    /// Brackets at least this wide were stepped in the latest round.
    step_width: f64,
    tally: &'t mut Tally,
}

/// `Model::time` as the solver sees it: a model that cannot answer is
/// infinitely slow.
fn time_of(model: &dyn Model, x: f64, tally: &mut Tally) -> f64 {
    tally.model_evals += 1;
    model.time(x).unwrap_or(f64::INFINITY)
}

/// `bisect`'s residual tolerance for the root of `time(x) − t`.
fn f_tol(t: f64) -> f64 {
    1e-12 * t.max(1.0)
}

impl Descent<'_> {
    /// A pre-check answered for this `t`; the levels below are not its
    /// way there, so no later `t` may take them up.
    fn settle(&mut self, root: f64) {
        self.root = Some(root);
        self.at.after = f64::INFINITY;
    }

    /// `bisect`'s width tolerance for a descent from `[0, top]`.
    fn x_tol(&self) -> f64 {
        1e-9 * self.top.max(1.0)
    }
}

impl<'m, 't> InnerSolve<'m, 't> {
    fn new(models: &[&'m dyn Model], max_iter: usize, tally: &'t mut Tally) -> Self {
        let levels = max_iter.min(X_TOL_LEVELS);
        let descents = models
            .iter()
            .map(|&model| Descent {
                model,
                // Beyond the last experimental point the speed is
                // constant, so the time function grows without bound:
                // doubling from there finds an upper bracket.
                hi0: model
                    .points()
                    .last()
                    .map(|p| p.d as f64)
                    .unwrap_or(1.0)
                    .max(1.0),
                at_zero: None,
                probes: Vec::new(),
                top: 0.0,
                turns: 0,
                known: 0,
                saved: 0,
                level: 0,
                // No `t` takes up a descent that never began.
                at: Stage {
                    after: f64::INFINITY,
                    ..Stage::fresh(0.0)
                },
                flo: 0.0,
                root: None,
            })
            .collect();
        Self {
            descents,
            at_mids: vec![0.0; models.len() * levels],
            checkpoints: vec![Stage::fresh(0.0); models.len() * (levels / STRIDE)],
            levels,
            max_iter,
            step_width: f64::INFINITY,
            tally,
        }
    }

    /// Begins process `i`'s descent for time `t`: everything
    /// `size_at_time` did before, and `bisect` did at, its first
    /// iteration — which may already give the root — and then puts the
    /// descent where the bisection for `t` would be after as many
    /// iterations as can be told without making them. Those are not
    /// taken past a bracket narrower than `reach`, where the caller
    /// would have stopped stepping.
    ///
    /// An iteration reads `t` twice: it returns `mid` if
    /// `|time(mid) − t| ≤ f_tol`, and otherwise keeps the upper half
    /// iff `time(mid) − t` has the sign of `flo`, which is to say iff
    /// `time(mid) < t` (`flo` is negative, or NaN along with `time(0)`,
    /// and then every level goes down whatever `t` is). So the levels
    /// up to a stage of the remembered path turn the same way for `t`
    /// if `t` is above every `time(mid)` that sent them up and not
    /// above any that sent them down, and none of them returns if the
    /// nearest on either side — `after` and `upto`; rounding a
    /// difference is monotone — is farther than `f_tol` from `t` and
    /// the stage's bracket is wider than `x_tol` (so were all before
    /// it: the brackets nest).
    ///
    /// If that holds for the descent the previous `t` left behind, it
    /// is taken up where it is — unless it had returned at its last
    /// level and that level would not return again (it always does
    /// when the width stopped it, else if `time(mid)` is still within
    /// `f_tol`). Otherwise the descent resumes at the deepest
    /// checkpoint for which it holds — each part of the test only
    /// fails more as the levels go deeper, so a binary search finds
    /// it — and replays the remembered levels after that one by one,
    /// up to the first that `step` would not pass the same way.
    fn start(&mut self, i: usize, t: f64, reach: f64) -> Result<(), CoreError> {
        let tally = &mut *self.tally;
        let d = &mut self.descents[i];
        if t <= 0.0 {
            d.settle(0.0);
            return Ok(());
        }

        let mut hi = d.hi0;
        let mut doublings = 0;
        let at_hi = loop {
            if doublings == d.probes.len() {
                d.probes.push(time_of(d.model, hi, tally));
            }
            let at_hi = d.probes[doublings];
            if at_hi < t {
                hi *= 2.0;
                doublings += 1;
                if doublings > 200 {
                    return Err(CoreError::Partition(format!(
                        "time function never reaches {t} s (unbounded speed?)"
                    )));
                }
            } else {
                break at_hi;
            }
        };
        let model = d.model;
        let at_zero = *d.at_zero.get_or_insert_with(|| time_of(model, 0.0, tally));
        if at_zero >= t {
            d.settle(0.0);
            return Ok(());
        }

        // `bisect`'s entry checks. The bracket `[0, hi]` is always
        // valid (`1 ≤ hi ≤ 2⁶⁴·2²⁰⁰`). Of the residuals at its ends,
        // `time(0) − t` is negative or NaN and `time(hi) − t` is not
        // negative — the two tests above — so the lower end is no
        // root, the signs can never be found equal, and what is left
        // is the upper end being the root.
        let flo = at_zero - t;
        if at_hi - t == 0.0 {
            d.settle(hi);
            return Ok(());
        }

        let far = |at_mid: f64| (at_mid - t).abs() > f_tol(t);
        let same_way = |s: &Stage| s.after < t && t <= s.upto && far(s.after) && far(s.upto);
        let ends_the_same = || {
            d.root.is_none()
                || (d.at.hi - d.at.lo) <= d.x_tol()
                || !far(self.at_mids[i * self.levels + d.level as usize - 1])
        };
        if hi == d.top && same_way(&d.at) && ends_the_same() {
            return Ok(());
        }
        if hi != d.top {
            d.top = hi;
            d.known = 0;
            d.saved = 0;
        }

        let x_tol = d.x_tol();
        let saved = &self.checkpoints[i * (self.levels / STRIDE)..][..d.saved as usize];
        let deepest = saved.partition_point(|s| {
            let width = s.hi - s.lo;
            same_way(s) && width > x_tol && width >= reach
        });
        let (mut level, mut at) = match deepest {
            0 => (0, Stage::fresh(hi)),
            n => (n * STRIDE, saved[n - 1]),
        };
        let at_mids = &self.at_mids[i * self.levels..][..self.levels];
        while level < d.known as usize && at.hi - at.lo >= reach {
            let at_mid = at_mids[level];
            match decide(at.hi - at.lo, x_tol, at_mid, t, flo) {
                Some(up) if up == (d.turns >> level & 1 == 1) => at.halve(up, at_mid),
                _ => break,
            }
            level += 1;
        }
        d.level = level as u32;
        d.at = at;
        d.flo = flo;
        d.root = None;
        Ok(())
    }

    /// One iteration of `bisect` for process `i`'s unfinished descent.
    fn step(&mut self, i: usize, t: f64) -> Result<(), CoreError> {
        let level = self.descents[i].level as usize;
        if level == self.max_iter {
            let d = &self.descents[i];
            return Err(NumError::NoConvergence {
                method: "bisect",
                residual: d.at.hi - d.at.lo,
            }
            .into());
        }
        self.tally.steps += 1;
        // In range: no descent goes deeper than `X_TOL_LEVELS`.
        let at_mid = &mut self.at_mids[i * self.levels..][..self.levels][level];
        let d = &mut self.descents[i];
        let mid = d.at.mid();
        if d.level == d.known {
            *at_mid = time_of(d.model, mid, self.tally);
            d.known += 1;
        }
        let at_mid = *at_mid;
        match decide(d.at.hi - d.at.lo, d.x_tol(), at_mid, t, d.flo) {
            None => d.root = Some(mid),
            Some(up) => {
                d.at.halve(up, at_mid);
                // Turning off the remembered path forgets what lay
                // beyond, checkpoints included.
                let bit = 1 << level;
                if (d.turns & bit != 0) != up {
                    d.turns ^= bit;
                    d.known = d.level + 1;
                    d.saved = d.saved.min((level / STRIDE) as u32);
                }
                // The path's stage at the next checkpoint level, once
                // every checkpoint above it is saved.
                let reached = level + 1;
                if reached == STRIDE * (d.saved as usize + 1) {
                    self.checkpoints[i * (self.levels / STRIDE) + d.saved as usize] = d.at;
                    d.saved += 1;
                }
            }
        }
        d.level += 1;
        Ok(())
    }

    /// Runs process `i`'s descent to its root.
    fn finish(&mut self, i: usize, t: f64) -> Result<f64, CoreError> {
        loop {
            if let Some(root) = self.descents[i].root {
                return Ok(root);
            }
            self.step(i, t)?;
        }
    }

    /// Moves every descent on with `advance`, then sums the brackets
    /// they are left with, in process order like the sum they bound.
    fn sweep(
        &mut self,
        mut advance: impl FnMut(&mut Self, usize) -> Result<(), CoreError>,
    ) -> Result<Brackets, CoreError> {
        let mut sums = Brackets {
            below: 0.0,
            above: 0.0,
            widest: None,
        };
        for i in 0..self.descents.len() {
            advance(self, i)?;
            let d = &self.descents[i];
            let (lo, hi) = d.root.map_or((d.at.lo, d.at.hi), |root| (root, root));
            sums.below += lo;
            sums.above += hi;
            if d.root.is_none() {
                sums.widest = Some(sums.widest.map_or(hi - lo, |w: f64| w.max(hi - lo)));
            }
        }
        Ok(sums)
    }

    /// `Σ dᵢ(t)`, estimated from as few levels as settle which side of
    /// `total` it lies on: the estimate is below `total` iff the sum
    /// is. It is the middle of the bracket sums that settled it, or
    /// the sum itself once every descent has finished.
    ///
    /// Which descents move, and when, changes only the cost: the
    /// answer is read off brackets that hold whatever was done to
    /// them. The cheapest way to narrow the sum is to halve its widest
    /// brackets, so each round steps those at least half as wide as
    /// the widest; and a descent that had to begin again first walks
    /// the levels it remembers down to the width the others were left
    /// at, which costs no evaluation.
    fn sum_estimate(&mut self, t: f64, total: f64) -> Result<f64, CoreError> {
        self.tally.outer_iterations += 1;
        // Below `X_TOL_LEVELS` a descent may run out of iterations, and
        // the comparison must not be answered past that error.
        let may_stop_early = self.max_iter >= X_TOL_LEVELS;
        let mut sums = self.sweep(|solve, i| {
            if !may_stop_early {
                solve.start(i, t, 0.0)?;
                return solve.finish(i, t).map(drop);
            }
            solve.start(i, t, solve.step_width)?;
            loop {
                let d = &solve.descents[i];
                if d.root.is_some() || d.level == d.known || d.at.hi - d.at.lo < solve.step_width {
                    return Ok(());
                }
                solve.step(i, t)?;
            }
        })?;
        loop {
            // With no descent open both sums are the full-depth sum.
            let Some(widest) = sums.widest else {
                return Ok(sums.above);
            };
            if sums.above < total || sums.below >= total {
                self.tally.decided_early += 1;
                // Rounding is monotone: `below ≤ estimate ≤ above`.
                return Ok(0.5 * (sums.below + sums.above));
            }
            self.step_width = 0.5 * widest;
            sums = self.sweep(|solve, i| {
                let d = &solve.descents[i];
                if d.root.is_some() || d.at.hi - d.at.lo < solve.step_width {
                    return Ok(());
                }
                solve.step(i, t)
            })?;
        }
    }

    /// Whether every `dᵢ(t)` is non-decreasing in `t`, once a
    /// comparison has asked every process for `time(0)`.
    fn is_monotone(&self) -> bool {
        self.max_iter >= X_TOL_LEVELS
            && self
                .descents
                .iter()
                .all(|d| d.at_zero.is_some_and(|z| !z.is_nan()))
    }

    /// Every `dᵢ(t)`, at full depth.
    fn sizes_at(&mut self, t: f64) -> Result<Vec<f64>, CoreError> {
        (0..self.descents.len())
            .map(|i| {
                self.start(i, t, 0.0)?;
                self.finish(i, t)
            })
            .collect()
    }
}

/// The outer comparisons made so far, as a bracket on the threshold
/// of `Σ dᵢ(T) < D`: true at `below.0`, false at `above.0`, each with
/// its estimate of `Σ dᵢ − D` there.
struct Threshold {
    below: (f64, f64),
    above: (f64, f64),
    /// Which end the latest comparison moved, and its estimate there.
    last: Option<(bool, f64)>,
    /// Two comparisons in a row found the same sum on the same side:
    /// the bracket is down to the steps of `Σ dᵢ`, where a line
    /// through its ends guesses no better than the `mid`.
    flat: bool,
}

impl Threshold {
    /// The comparison at `t`, if the bracket already settles it.
    fn answer(&self, t: f64) -> Option<bool> {
        if t <= self.below.0 {
            Some(true)
        } else if t >= self.above.0 {
            Some(false)
        } else {
            None
        }
    }

    /// Where to compare instead of a `mid` inside the bracket: where
    /// the line through its ends' estimates crosses `D`, unless that
    /// is not strictly inside or the bracket has gone flat.
    fn probe(&self) -> Option<f64> {
        let ((ta, fa), (tb, fb)) = (self.below, self.above);
        let t = ta - fa * (tb - ta) / (fb - fa);
        (!self.flat && ta < t && t < tb).then_some(t)
    }

    /// Files the comparison made at `t`, whose estimate of `Σ dᵢ − D`
    /// is `excess`: negative iff the sum is below `D`.
    fn record(&mut self, t: f64, excess: f64) {
        let below = excess < 0.0;
        if below {
            self.below = (t, excess);
        } else {
            self.above = (t, excess);
        }
        // Illinois: an end that stays put twice in a row has its
        // estimate halved, so the guesses cannot crawl towards it.
        if let Some((last_below, last_excess)) = self.last {
            if last_below == below {
                self.flat |= last_excess == excess;
                if below {
                    self.above.1 *= 0.5;
                } else {
                    self.below.1 *= 0.5;
                }
            }
        }
        self.last = Some((below, excess));
    }
}

impl GeometricPartitioner {
    fn solve(
        &self,
        total: u64,
        models: &[&dyn Model],
        tally: &mut Tally,
    ) -> Result<Distribution, CoreError> {
        check_inputs(models)?;
        let continuous = if total == 0 {
            vec![0.0; models.len()]
        } else {
            self.sizes_at_optimum(total as f64, models, tally)?
        };
        let dist = finalize(total, &continuous, models)?;
        tally.model_evals += models.len() as u64; // the parts' predicted times
        Ok(dist)
    }

    /// The outer bisection of the line slope (equivalently of `T`);
    /// returns the continuous sizes at `T*`.
    fn sizes_at_optimum(
        &self,
        d: f64,
        models: &[&dyn Model],
        tally: &mut Tally,
    ) -> Result<Vec<f64>, CoreError> {
        // Upper bracket on T*: the time the single slowest process
        // would need for the whole workload — by then every process can
        // absorb D on its own.
        let mut t_hi: f64 = 0.0;
        for m in models {
            tally.model_evals += 1;
            let t = m.time(d).unwrap_or(0.0);
            t_hi = t_hi.max(t);
        }
        if t_hi <= 0.0 {
            return Err(CoreError::Partition(
                "all models predict zero time for the whole workload".to_owned(),
            ));
        }

        let mut inner = InnerSolve::new(models, self.max_iter, tally);
        let mut lo = 0.0;
        let mut hi = t_hi;
        // Make sure the bracket really covers D (numerical safety).
        let mut guard = 0;
        let at_hi = loop {
            let sum = inner.sum_estimate(hi, d)?;
            if sum >= d {
                break sum;
            }
            hi *= 2.0;
            guard += 1;
            if guard > 100 {
                return Err(CoreError::Partition(
                    "failed to bracket the optimal line".to_owned(),
                ));
            }
        };
        // Every size is 0 at `T = 0`. While the sizes grow with `T`
        // (module docs, *Unneeded comparisons*), a comparison answers
        // every `mid` on its side of it; otherwise `known` is `[lo, hi]`
        // and every `mid` is compared where the plain bisection did.
        let monotone = inner.is_monotone();
        let mut known = Threshold {
            below: (0.0, -d),
            above: (hi, at_hi - d),
            last: None,
            flat: false,
        };
        for _ in 0..self.max_iter {
            let mid = 0.5 * (lo + hi);
            if (hi - lo) <= self.rel_tol * hi {
                break;
            }
            let mut probes = 0;
            let below = loop {
                if let Some(below) = known.answer(mid) {
                    break below;
                }
                let t = match known.probe() {
                    Some(t) if monotone && probes < PROBES => t,
                    _ => mid,
                };
                probes += 1;
                known.record(t, inner.sum_estimate(t, d)? - d);
            };
            if below {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        inner.sizes_at(hi)
    }
}

impl Partitioner for GeometricPartitioner {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        let mut tally = Tally::default();
        let result = self.solve(total, models, &mut tally);
        if telemetry::global().enabled() {
            let c = counters();
            c.calls.inc();
            c.model_evals.add(tally.model_evals);
            c.outer_iterations.add(tally.outer_iterations);
            c.decided_early.add(tally.decided_early);
            c.steps.add(tally.steps);
        }
        result
    }
}

/// This algorithm's series in the process-wide telemetry registry.
struct Counters {
    calls: telemetry::Counter,
    model_evals: telemetry::Counter,
    outer_iterations: telemetry::Counter,
    decided_early: telemetry::Counter,
    steps: telemetry::Counter,
}

/// The handles, registered on first use by an enabled registry.
fn counters() -> &'static Counters {
    static COUNTERS: std::sync::OnceLock<Counters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let counter = |name, help| {
            telemetry::global().counter(name, help, &[("algorithm", "geometric")])
        };
        Counters {
            calls: counter("partition_calls_total", "Partitioner calls, by algorithm."),
            model_evals: counter(
                "partition_model_evals_total",
                "Model evaluations made by partitioner calls, by algorithm.",
            ),
            outer_iterations: counter(
                "partition_outer_iterations_total",
                "Outer comparisons (is the sum of sizes at T below the total) evaluated, by algorithm.",
            ),
            decided_early: counter(
                "partition_decided_early_total",
                "Outer comparisons settled from brackets before every inner solve reached full depth, by algorithm.",
            ),
            steps: counter(
                "partition_steps_total",
                "Inner bisection levels stepped one at a time (not resumed past), by algorithm.",
            ),
        }
    })
}

/// The solve this module replaced, kept verbatim as the reference the
/// tests hold the new one to: every inner bisection is a fresh call of
/// [`fupermod_num::solve::bisect`] from `[0, hi]`, run to full depth.
#[cfg(test)]
mod oracle {
    use fupermod_num::solve::{bisect, RootOptions};

    use super::super::{check_inputs, finalize, Distribution};
    use super::GeometricPartitioner;
    use crate::model::Model;
    use crate::CoreError;

    impl GeometricPartitioner {
        /// The size process `m` can complete within `t` seconds: the
        /// intersection of its speed function with the line of slope `1/t`.
        pub(super) fn size_at_time(&self, m: &dyn Model, t: f64) -> Result<f64, CoreError> {
            if t <= 0.0 {
                return Ok(0.0);
            }
            let time = |x: f64| m.time(x).unwrap_or(f64::INFINITY);

            // Beyond the last experimental point the speed is constant, so
            // the time function grows without bound: doubling finds an
            // upper bracket.
            let mut hi = m
                .points()
                .last()
                .map(|p| p.d as f64)
                .unwrap_or(1.0)
                .max(1.0);
            let mut guard = 0;
            while time(hi) < t {
                hi *= 2.0;
                guard += 1;
                if guard > 200 {
                    return Err(CoreError::Partition(format!(
                        "time function never reaches {t} s (unbounded speed?)"
                    )));
                }
            }
            if time(0.0) >= t {
                return Ok(0.0);
            }
            let root = bisect(
                |x| time(x) - t,
                0.0,
                hi,
                RootOptions {
                    x_tol: 1e-9 * hi.max(1.0),
                    f_tol: 1e-12 * t.max(1.0),
                    max_iter: self.max_iter,
                },
            )
            .map_err(CoreError::from)?;
            Ok(root)
        }

        pub(super) fn oracle_partition(
            &self,
            total: u64,
            models: &[&dyn Model],
        ) -> Result<Distribution, CoreError> {
            check_inputs(models)?;
            if total == 0 {
                return finalize(total, &vec![0.0; models.len()], models);
            }
            let d = total as f64;

            // Upper bracket on T*: the time the single slowest process
            // would need for the whole workload — by then every process can
            // absorb D on its own.
            let mut t_hi: f64 = 0.0;
            for m in models {
                let t = m.time(d).unwrap_or(0.0);
                t_hi = t_hi.max(t);
            }
            if t_hi <= 0.0 {
                return Err(CoreError::Partition(
                    "all models predict zero time for the whole workload".to_owned(),
                ));
            }

            let sum_at = |t: f64| -> Result<f64, CoreError> {
                let mut sum = 0.0;
                for m in models {
                    sum += self.size_at_time(*m, t)?;
                }
                Ok(sum)
            };

            // Bisection of the line slope (equivalently of T).
            let mut lo = 0.0;
            let mut hi = t_hi;
            // Make sure the bracket really covers D (numerical safety).
            let mut guard = 0;
            while sum_at(hi)? < d {
                hi *= 2.0;
                guard += 1;
                if guard > 100 {
                    return Err(CoreError::Partition(
                        "failed to bracket the optimal line".to_owned(),
                    ));
                }
            }
            for _ in 0..self.max_iter {
                let mid = 0.5 * (lo + hi);
                if (hi - lo) <= self.rel_tol * hi {
                    break;
                }
                if sum_at(mid)? < d {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let t_star = hi;

            let mut continuous = Vec::with_capacity(models.len());
            for m in models {
                continuous.push(self.size_at_time(*m, t_star)?);
            }
            finalize(total, &continuous, models)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AkimaModel, ConstantModel, Model, PiecewiseModel};
    use crate::Point;
    use proptest::prelude::*;

    fn fed<M: Model + Default>(data: &[(u64, f64)]) -> M {
        let mut m = M::default();
        for &(d, t) in data {
            m.update(Point::single(d, t)).unwrap();
        }
        m
    }

    fn pwm(data: &[(u64, f64)]) -> PiecewiseModel {
        fed(data)
    }

    #[test]
    fn matches_proportional_split_for_constant_speeds() {
        let m1 = pwm(&[(100, 1.0), (1000, 10.0)]); // 100 u/s
        let m2 = pwm(&[(100, 4.0), (1000, 40.0)]); // 25 u/s
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = GeometricPartitioner::default()
            .partition(1000, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![800, 200]);
        assert!(dist.predicted_imbalance() < 0.02);
    }

    #[test]
    fn equalises_times_on_nonlinear_speeds() {
        // Process 1 slows down sharply past 500 units (memory cliff);
        // process 2 is steady. The optimum keeps process 1 in its fast
        // region.
        let m1 = pwm(&[(100, 1.0), (500, 5.0), (600, 30.0), (1000, 100.0)]);
        let m2 = pwm(&[(100, 2.0), (1000, 20.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = GeometricPartitioner::default()
            .partition(1200, &models)
            .unwrap();
        let t1 = m1.time(dist.parts()[0].d as f64).unwrap();
        let t2 = m2.time(dist.parts()[1].d as f64).unwrap();
        assert!(
            (t1 - t2).abs() / t1.max(t2) < 0.05,
            "times not equalised: {t1} vs {t2}"
        );
        assert_eq!(dist.total_assigned(), 1200);
    }

    #[test]
    fn cpm_fed_geometric_matches_constant_partitioner() {
        let mut c1 = ConstantModel::new();
        c1.update(Point::single(100, 1.0)).unwrap();
        let mut c2 = ConstantModel::new();
        c2.update(Point::single(100, 3.0)).unwrap();
        let models: Vec<&dyn Model> = vec![&c1, &c2];
        let dist = GeometricPartitioner::default()
            .partition(400, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![300, 100]);
    }

    #[test]
    fn single_process_takes_all() {
        let m = pwm(&[(10, 1.0), (100, 20.0)]);
        let models: Vec<&dyn Model> = vec![&m];
        let dist = GeometricPartitioner::default()
            .partition(77, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![77]);
    }

    #[test]
    fn zero_total_is_fine() {
        let m = pwm(&[(10, 1.0), (100, 20.0)]);
        let models: Vec<&dyn Model> = vec![&m];
        let dist = GeometricPartitioner::default().partition(0, &models).unwrap();
        assert_eq!(dist.sizes(), vec![0]);
    }

    #[test]
    fn very_slow_process_gets_little_work() {
        let fast = pwm(&[(1000, 1.0), (10000, 10.0)]); // 1000 u/s
        let slow = pwm(&[(10, 10.0), (100, 100.0)]); // 1 u/s
        let models: Vec<&dyn Model> = vec![&fast, &slow];
        let dist = GeometricPartitioner::default()
            .partition(10_000, &models)
            .unwrap();
        assert!(dist.parts()[1].d <= 15, "slow got {}", dist.parts()[1].d);
    }

    #[test]
    fn many_processes_conserve_total() {
        let ms: Vec<PiecewiseModel> = (1..=8)
            .map(|i| pwm(&[(100, i as f64), (1000, 10.0 * i as f64)]))
            .collect();
        let models: Vec<&dyn Model> = ms.iter().map(|m| m as &dyn Model).collect();
        let dist = GeometricPartitioner::default()
            .partition(12_345, &models)
            .unwrap();
        assert_eq!(dist.total_assigned(), 12_345);
        // Faster (lower index) processes get strictly more.
        let sizes = dist.sizes();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    /// A model whose time function is whatever the test says: straight
    /// lines through `(0, at_zero)` and the points, continued past the
    /// last point at `slope_beyond` (which may be zero or negative).
    /// Nothing about it is monotone, positive or even finite.
    struct Wild {
        points: Vec<Point>,
        at_zero: f64,
        slope_beyond: f64,
    }

    impl Model for Wild {
        fn points(&self) -> &[Point] {
            &self.points
        }
        fn update(&mut self, _: Point) -> Result<(), CoreError> {
            unreachable!("the partitioner only reads")
        }
        fn time(&self, x: f64) -> Option<f64> {
            let (mut x0, mut y0) = (0.0, self.at_zero);
            for p in &self.points {
                let (x1, y1) = (p.d as f64, p.t);
                if x <= x1 {
                    return Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0));
                }
                (x0, y0) = (x1, y1);
            }
            Some(y0 + self.slope_beyond * (x - x0))
        }
        fn time_derivative(&self, _: f64) -> Option<f64> {
            None
        }
        fn speed(&self, _: f64) -> Option<f64> {
            None
        }
    }

    /// SplitMix64: the cases below are drawn from one seed each, so a
    /// failure names the seed that reproduces it.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// How big a drawn case is: one to `processes` models of
    /// `points.0..=points.1` points each.
    #[derive(Clone, Copy)]
    struct Shape {
        processes: u64,
        points: (u64, u64),
    }

    /// Few processes and points: every kind of model and outcome.
    const SMALL: Shape = Shape {
        processes: 16,
        points: (1, 8),
    };

    /// Many processes with detailed models: deep descents, which most
    /// new `T` send back up their remembered paths.
    const LARGE: Shape = Shape {
        processes: 256,
        points: (8, 32),
    };

    /// Sorted distinct sizes with times that are either those of a
    /// steady device with a cliff, or noise.
    fn random_points(draw: &mut Draw, shape: Shape) -> Vec<(u64, f64)> {
        let (fewest, most) = shape.points;
        let n = fewest + draw.below(most - fewest + 1);
        let mut d = 0;
        let speed = 1.0 + 1000.0 * draw.unit();
        let cliff = draw.below(5000) as f64;
        let wild = draw.below(3) == 0;
        (0..n)
            .map(|_| {
                d += 1 + draw.below(2000);
                let x = d as f64;
                let t = if wild {
                    1e-3 + 10.0 * draw.unit()
                } else {
                    (x.min(cliff) + 8.0 * (x - cliff).max(0.0)) / speed
                };
                (d, t)
            })
            .collect()
    }

    fn random_model(draw: &mut Draw, shape: Shape) -> Box<dyn Model> {
        let points = random_points(draw, shape);
        match draw.below(8) {
            0..=2 => Box::new(fed::<PiecewiseModel>(&points)),
            3..=5 => Box::new(fed::<AkimaModel>(&points)),
            6 => Box::new(fed::<ConstantModel>(&points)),
            _ => Box::new(Wild {
                points: points.iter().map(|&(d, t)| Point::single(d, t)).collect(),
                at_zero: draw.pick(&[0.0, 0.0, 0.0, 0.5, f64::NAN]),
                slope_beyond: draw.pick(&[1e-3, 1.0, 0.0, -1e-3]),
            }),
        }
    }

    /// Models of any kind, as many and as detailed as `shape` says.
    fn random_models(draw: &mut Draw, shape: Shape) -> Vec<Box<dyn Model>> {
        let p = 1 + draw.below(shape.processes);
        (0..p).map(|_| random_model(draw, shape)).collect()
    }

    /// [`same_as_oracle_in`] on a case of the [`SMALL`] shape.
    fn same_as_oracle(seed: u64) -> Result<(), String> {
        same_as_oracle_in(SMALL, seed)
    }

    /// A partition's sizes with the bits of their predicted times.
    fn bits(d: &Distribution) -> Vec<(u64, u64)> {
        d.parts()
            .iter()
            .map(|part| (part.d, part.t.to_bits()))
            .collect()
    }

    /// New solve against the oracle on one drawn case: `Ok` results
    /// equal in sizes and in the bits of every predicted time, an
    /// error where there was one (and the same one).
    fn same_as_oracle_in(shape: Shape, seed: u64) -> Result<(), String> {
        let mut draw = Draw(seed);
        let models = random_models(&mut draw, shape);
        let p = models.len();
        let refs: Vec<&dyn Model> = models.iter().map(|m| &**m).collect();
        let reach: u64 = refs.iter().map(|m| m.points().last().unwrap().d).sum();
        let total = match draw.below(6) {
            0 => 0,
            1 => draw.below(p as u64 + 1),
            2 => 4 * reach + draw.below(reach),
            _ => draw.below(reach + 1),
        };
        let partitioner = GeometricPartitioner {
            rel_tol: draw.pick(&[1e-10, 1e-10, 1e-6, 1e-2]),
            max_iter: draw.pick(&[0, 5, 12, 30, 31, 32, 40, 200, 200]),
        };
        let got = partitioner.partition(total, &refs);
        let want = partitioner.oracle_partition(total, &refs);
        let same = match (&got, &want) {
            (Ok(got), Ok(want)) => bits(got) == bits(want),
            (Err(got), Err(want)) => got.to_string() == want.to_string(),
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: {partitioner:?}, total {total}, p {p}:\n  got  {got:?}\n  want {want:?}"
            ))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn partitions_are_the_oracles_to_the_bit(seed in 0u64..u64::MAX) {
            let outcome = same_as_oracle(seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn large_partitions_are_the_oracles_to_the_bit(seed in 0u64..u64::MAX) {
            let outcome = same_as_oracle_in(LARGE, seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// Every seed of a wide range against the oracle; run in release:
    /// `cargo test --release -p fupermod-core --lib -- --ignored`.
    #[test]
    #[ignore = "a sweep for release builds"]
    fn a_wide_sweep_of_seeds_is_the_oracles_to_the_bit() {
        for seed in 0..50_000 {
            same_as_oracle_in(SMALL, seed).unwrap();
        }
        for seed in 0..1_000 {
            same_as_oracle_in(LARGE, seed).unwrap();
        }
    }

    /// Sorted times around the places where an inner descent for `model`
    /// decides: its `time` at sizes spread over its points and at
    /// dyadic fractions of its last point (a descent's `mid`s), and
    /// times spread over twelve decades, each with neighbours one ulp
    /// and `10⁻¹³` apart.
    fn times_for(draw: &mut Draw, model: &dyn Model) -> Vec<f64> {
        let last = model.points().last().map_or(1.0, |p| p.d as f64);
        let time = |x: f64| model.time(x).unwrap_or(f64::INFINITY);
        let mut ts = Vec::new();
        for _ in 0..8 {
            let t = match draw.below(3) {
                0 => time(2.0 * last * draw.unit()),
                1 => {
                    let odd = [1, 2 * draw.below(1 << 20) + 1][draw.below(2) as usize];
                    time(last * odd as f64 / (1u64 << (1 + draw.below(30))) as f64)
                }
                _ => 10f64.powf(12.0 * draw.unit() - 6.0),
            };
            if !t.is_finite() || t <= 0.0 {
                continue;
            }
            ts.extend((0..5).map(|k| f64::from_bits(t.to_bits() + k - 2)));
            ts.extend((-3..=3).map(|k| t * (1.0 + k as f64 * 1e-13)));
        }
        ts.sort_by(f64::total_cmp);
        ts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The lemma the outer search rests on: with `max_iter ≥ 31`
        /// and a non-NaN `time(0)`, the inner result `dᵢ(t)` the oracle
        /// computes is non-decreasing in `t` (an error, where the time
        /// function never reaches `t`, counting as above every size).
        #[test]
        fn inner_sizes_are_monotone_in_t(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let shape = draw.pick(&[SMALL, LARGE]);
            let model = loop {
                let model = random_model(&mut draw, shape);
                if !model.time(0.0).is_some_and(f64::is_nan) {
                    break model;
                }
            };
            let g = GeometricPartitioner {
                max_iter: draw.pick(&[31, 32, 40, 200]),
                ..GeometricPartitioner::default()
            };
            let ts = times_for(&mut draw, &*model);
            let sizes: Vec<Option<f64>> =
                ts.iter().map(|&t| g.size_at_time(&*model, t).ok()).collect();
            for (k, pair) in sizes.windows(2).enumerate() {
                let grows = match pair {
                    [Some(a), Some(b)] => a <= b,
                    [_, b] => b.is_none(),
                    _ => unreachable!(),
                };
                prop_assert!(
                    grows,
                    "seed {seed}: {:?} at t = {:e}, then {:?} at t = {:e}",
                    pair[0],
                    ts[k],
                    pair[1],
                    ts[k + 1]
                );
            }
        }
    }

    /// How many times the plain bisection of `T` — the oracle's —
    /// compares a sum of sizes with the total.
    fn plain_comparisons(g: GeometricPartitioner, total: u64, models: &[&dyn Model]) -> u64 {
        let d = total as f64;
        let below = |t: f64| {
            models
                .iter()
                .fold(0.0, |sum, m| sum + g.size_at_time(*m, t).unwrap())
                < d
        };
        let mut hi = models
            .iter()
            .fold(0.0, |hi: f64, m| hi.max(m.time(d).unwrap_or(0.0)));
        let mut count = 1;
        while below(hi) {
            hi *= 2.0;
            count += 1;
        }
        let mut lo = 0.0;
        for _ in 0..g.max_iter {
            let mid = 0.5 * (lo + hi);
            if hi - lo <= g.rel_tol * hi {
                break;
            }
            count += 1;
            if below(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        count
    }

    /// A NaN `time(0)` voids the lemma, so no probe is made: the call
    /// compares exactly as often as the plain bisection, and returns
    /// the oracle's bits.
    #[test]
    fn a_nan_time_at_zero_compares_like_the_plain_bisection() {
        let steady = pwm(&[(100, 1.0), (1000, 10.0)]);
        let cliff = fed::<AkimaModel>(&[(100, 2.0), (400, 7.0), (500, 30.0), (2000, 200.0)]);
        let nan = Wild {
            points: vec![Point::single(200, 1.0), Point::single(800, 6.0)],
            at_zero: f64::NAN,
            slope_beyond: 1e-2,
        };
        let models: Vec<&dyn Model> = vec![&steady, &nan, &cliff];
        let g = GeometricPartitioner::default();
        let mut tally = Tally::default();
        let got = g.solve(2500, &models, &mut tally).unwrap();
        let want = g.oracle_partition(2500, &models).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(tally.outer_iterations, plain_comparisons(g, 2500, &models));
    }

    /// Drawn cases, found among the first 200 000 seeds, in which a
    /// new `T` comes within `f_tol` of a remembered `time(mid)` that
    /// sent a descent up (the first four) or down (the rest), so that
    /// the level must now return its `mid`: a resume past such a level
    /// fails on them, and the random draws above meet one in 10⁴–10⁵.
    #[test]
    fn near_ties_are_never_resumed_past() {
        for seed in [17469, 97543, 111575, 148290, 3806, 13578, 36054, 55888] {
            same_as_oracle(seed).unwrap();
        }
    }

    #[test]
    fn the_drawn_cases_reach_every_kind_of_outcome() {
        // The identity test above is only as good as its cases: they
        // must include errors, early-decided and full-depth solves.
        let (mut oks, mut errs) = (0, 0);
        for seed in 0..400 {
            let models = random_models(&mut Draw(seed), SMALL);
            let refs: Vec<&dyn Model> = models.iter().map(|m| &**m).collect();
            match GeometricPartitioner::default().partition(1000, &refs) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert!(oks >= 100 && errs >= 20, "{oks} ok, {errs} errors");
    }

    /// Sizes and predicted-time bits the solve this module replaced
    /// (commit 49defd0) returned for three fixed inputs. They pin the
    /// output should the oracle above ever be deleted.
    #[test]
    fn three_partitions_pinned_from_the_previous_solve() {
        #[track_caller]
        fn pinned(g: GeometricPartitioner, total: u64, models: &[&dyn Model], want: &[(u64, u64)]) {
            let dist = g.partition(total, models).unwrap();
            let got: Vec<(u64, u64)> = dist.parts().iter().map(|p| (p.d, p.t.to_bits())).collect();
            assert_eq!(got, want);
        }

        let cliff = fed::<PiecewiseModel>(&[(100, 1.0), (500, 5.0), (600, 30.0), (1000, 100.0)]);
        let steady = fed::<PiecewiseModel>(&[(100, 2.0), (1000, 20.0)]);
        pinned(
            GeometricPartitioner::default(),
            1200,
            &[&cliff, &steady],
            &[(569, 0x402966db6db6db6e), (631, 0x40293d70a3d70a3d)],
        );

        let a = fed::<AkimaModel>(&[
            (100, 1.0),
            (200, 2.5),
            (400, 4.0),
            (800, 12.0),
            (1600, 30.0),
        ]);
        let b = fed::<AkimaModel>(&[(10, 1.0), (60, 10.0), (900, 100.0), (4000, 1000.0)]);
        let c = fed::<AkimaModel>(&[(50, 0.9), (100, 2.4), (200, 4.5), (400, 8.0), (900, 28.0)]);
        pinned(
            GeometricPartitioner::default(),
            3000,
            &[&a, &b, &c],
            &[
                (1750, 0x4040c80000000000),
                (242, 0x4040c6cb6180c036),
                (1008, 0x4040c47ae147ae14),
            ],
        );

        // Every kind of model, a total far beyond all their points, and
        // both fields off their defaults.
        let c1 = fed::<ConstantModel>(&[(100, 1.0)]);
        let c2 = fed::<PiecewiseModel>(&[(64, 0.5), (256, 2.5), (1024, 14.0)]);
        let c3 = fed::<AkimaModel>(&[(32, 0.1), (128, 0.5), (512, 3.0), (2048, 20.0)]);
        let c4 = fed::<ConstantModel>(&[(10, 3.0)]);
        let c5 = fed::<PiecewiseModel>(&[(1000, 1.0), (10000, 10.0)]);
        pinned(
            GeometricPartitioner {
                rel_tol: 1e-6,
                max_iter: 40,
            },
            1_000_000,
            &[&c1, &c2, &c3, &c4, &c5],
            &[
                (79866, 0x4088f547ae147ae1),
                (58417, 0x4088f55c00000000),
                (60391, 0x4088f554aaaaaaab),
                (2662, 0x4088f4cccccccccc),
                (798664, 0x4088f54fdf3b645a),
            ],
        );
    }
}
