// Batched lockstep stepping: a member's trajectory inside a k-wide
// cohort must be (a) within rounding error (1e-9 C) of an implicit-
// Euler LU oracle (euler_oracle.hpp), and (b) BITWISE identical at any
// cohort size -- TransientSimulator is the k = 1 lane of the same
// panel kernels, which is the determinism contract behind the sweep
// engine's byte-identical CSV promise at any --batch-max-k.
// Also covered: mid-cohort detachment (swap-last compaction leaves
// survivors untouched bitwise), mixed-dt cohorts off one
// PropagatorSet, and a TSan-hammered run of threads racing the first
// fold of one (model, dt) and then stepping over the one shared,
// immutable propagator.
#include "thermal/batch_propagator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "euler_oracle.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {
namespace {

using testing::EulerOracle;

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Exact (bitwise) equality of two state vectors.
bool BitwiseEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// Deterministic per-core power pattern, distinct per member.
std::vector<double> PowerPattern(std::size_t n, std::size_t member,
                                 std::size_t phase) {
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = 0.5 + ((i * 7 + member * 11 + phase * 3) % 8) * 0.375;  // 0.5..3.1 W
  return p;
}

/// Deterministic initial node state, distinct per member.
std::vector<double> InitialState(std::size_t nodes, std::size_t member) {
  std::vector<double> s(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    s[i] = 45.0 + ((i * 5 + member * 13) % 10) * 1.5;  // 45..58.5 C
  return s;
}

std::shared_ptr<const StepPropagator> MakeProp(const RcModel& model,
                                               double dt) {
  return std::make_shared<const StepPropagator>(model, dt);
}

TEST(BatchStepPropagator, MatchesPerJobSimulatorTo1e9) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const SteadyStateSolver solver(model);
  const std::size_t k = 4;

  // Seed each oracle with a distinct warm state, then add that exact
  // state as a cohort member so both start identically.
  std::vector<EulerOracle> refs;
  BatchStepPropagator batch(prop, k);
  for (std::size_t j = 0; j < k; ++j) {
    refs.emplace_back(model, 1e-3,
                      solver.SolveFull(PowerPattern(model.num_cores(), j, 0)));
    ASSERT_EQ(batch.AddMember(refs.back().state()), j);
  }
  ASSERT_EQ(batch.k(), k);

  // Time-varying, per-member-distinct powers.
  for (std::size_t s = 0; s < 120; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<double> p =
          PowerPattern(model.num_cores(), j, s / 30);
      batch.SetPowers(j, p);
      refs[j].Step(p);
    }
    batch.Step();
  }
  std::vector<double> out(model.num_nodes());
  for (std::size_t j = 0; j < k; ++j) {
    batch.CopyState(j, out);
    EXPECT_LT(MaxAbsDiff(out, refs[j].state()), 1e-9) << "member " << j;
  }
  EXPECT_EQ(batch.steps(), 120u);
}

TEST(BatchStepPropagator, BitwiseIdenticalAcrossCohortSizes) {
  const RcModel model(Floorplan::MakeGrid(25, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const std::vector<double> init = InitialState(model.num_nodes(), 0);

  // Lane A: the member alone (the k = 1 scalar lane).
  BatchStepPropagator solo(prop, 1);
  ASSERT_EQ(solo.AddMember(init), 0u);
  // Lanes B, C: the same member sharing a panel with 1 / 4 others
  // carrying different states and powers.
  BatchStepPropagator duo(prop, 2);
  BatchStepPropagator five(prop, 5);
  ASSERT_EQ(duo.AddMember(init), 0u);
  ASSERT_EQ(five.AddMember(init), 0u);
  for (std::size_t j = 1; j < 2; ++j)
    duo.AddMember(InitialState(model.num_nodes(), j));
  for (std::size_t j = 1; j < 5; ++j)
    five.AddMember(InitialState(model.num_nodes(), j));

  for (std::size_t s = 0; s < 200; ++s) {
    const std::vector<double> p = PowerPattern(model.num_cores(), 0, s / 40);
    solo.SetPowers(0, p);
    solo.Step();
    duo.SetPowers(0, p);
    five.SetPowers(0, p);
    for (std::size_t j = 1; j < 2; ++j)
      duo.SetPowers(j, PowerPattern(model.num_cores(), j, s / 40));
    for (std::size_t j = 1; j < 5; ++j)
      five.SetPowers(j, PowerPattern(model.num_cores(), j, s / 40));
    duo.Step();
    five.Step();
  }
  EXPECT_TRUE(BitwiseEqual(solo.MemberState(0), duo.MemberState(0)));
  EXPECT_TRUE(BitwiseEqual(solo.MemberState(0), five.MemberState(0)));
}

TEST(BatchStepPropagator, DetachLeavesSurvivorsBitwiseUnchanged) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const std::size_t k = 3;

  BatchStepPropagator full(prop, k);      // nobody leaves
  BatchStepPropagator detach(prop, k);    // member 1 detaches at step 25
  for (std::size_t j = 0; j < k; ++j) {
    full.AddMember(InitialState(model.num_nodes(), j));
    detach.AddMember(InitialState(model.num_nodes(), j));
  }
  auto set_powers = [&](BatchStepPropagator& b, std::size_t phase) {
    for (std::size_t j = 0; j < k; ++j)
      if (b.IsActive(j))
        b.SetPowers(j, PowerPattern(model.num_cores(), j, phase));
  };
  for (std::size_t s = 0; s < 50; ++s) {
    if (s == 25) {
      detach.RemoveMember(1);  // deadline/cancel/quarantine path
      EXPECT_FALSE(detach.IsActive(1));
      EXPECT_EQ(detach.k(), k - 1);
    }
    set_powers(full, s / 10);
    set_powers(detach, s / 10);
    full.Step();
    detach.Step();
  }
  // Survivors (one of whom was compacted into the vacated column) are
  // bit-for-bit where they would have been with member 1 still aboard.
  EXPECT_TRUE(BitwiseEqual(full.MemberState(0), detach.MemberState(0)));
  EXPECT_TRUE(BitwiseEqual(full.MemberState(2), detach.MemberState(2)));
  EXPECT_THROW((void)detach.MemberState(1), ContractViolation);
}

TEST(BatchStepPropagator, MixedDtCohortsStayIndependent) {
  const RcModel model(Floorplan::MakeGrid(9, 5.1));
  // One PropagatorSet, two dt cohorts -- the engine keys cohorts by
  // (model, dt), so distinct-dt jobs land in distinct batches.
  const PropagatorSet set;
  const auto fast_prop = set.For(model, 1e-3);
  const auto slow_prop = set.For(model, 2e-3);
  ASSERT_NE(fast_prop.get(), slow_prop.get());

  BatchStepPropagator fast(fast_prop, 2);
  BatchStepPropagator slow(slow_prop, 2);
  EulerOracle fast_ref(model, 1e-3);
  EulerOracle slow_ref(model, 2e-3);
  fast.AddMember(fast_ref.state());
  slow.AddMember(slow_ref.state());
  fast.AddMember(InitialState(model.num_nodes(), 1));
  slow.AddMember(InitialState(model.num_nodes(), 2));

  const std::vector<double> p = PowerPattern(model.num_cores(), 0, 0);
  for (std::size_t s = 0; s < 60; ++s) {
    fast.SetPowers(0, p);
    fast.SetPowers(1, p);
    slow.SetPowers(0, p);
    slow.SetPowers(1, p);
    fast.Step();
    slow.Step();
    fast_ref.Step(p);
    slow_ref.Step(p);
  }
  EXPECT_LT(MaxAbsDiff(fast.MemberState(0), fast_ref.state()), 1e-9);
  EXPECT_LT(MaxAbsDiff(slow.MemberState(0), slow_ref.state()), 1e-9);
  EXPECT_DOUBLE_EQ(fast.dt(), 1e-3);
  EXPECT_DOUBLE_EQ(slow.dt(), 2e-3);
}

// TransientSimulator is the k = 1 lane: its trajectory is bitwise the
// same member's inside a 4-wide cohort whose other members carry
// different states and powers, under varying and constant powers.
TEST(BatchStepPropagator, TransientSimulatorIsTheK1Lane) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto set = std::make_shared<const PropagatorSet>();
  const auto prop = set->For(model, 1e-3);
  TransientSimulator sim(model, 1e-3, set);
  sim.SetState(SteadyStateSolver(model).WarmStart(
      [&](std::span<const double>, std::span<double> out) {
        const std::vector<double> p0 = PowerPattern(model.num_cores(), 0, 0);
        std::copy(p0.begin(), p0.end(), out.begin());
      },
      1));

  BatchStepPropagator cohort(prop, 4);
  ASSERT_EQ(cohort.AddMember(InitialState(model.num_nodes(), 1)), 0u);
  ASSERT_EQ(cohort.AddMember(sim.state()), 1u);
  cohort.AddMember(InitialState(model.num_nodes(), 2));
  cohort.AddMember(InitialState(model.num_nodes(), 3));
  auto step_others = [&](std::size_t phase) {
    for (const std::size_t j : {0u, 2u, 3u})
      cohort.SetPowers(j, PowerPattern(model.num_cores(), j + 1, phase));
  };
  // 200 steps: well past any warm-up phase, with varying powers.
  for (std::size_t s = 0; s < 200; ++s) {
    const std::vector<double> p = PowerPattern(model.num_cores(), 0, s / 7);
    sim.Step(p);
    step_others(s);
    cohort.SetPowers(1, p);
    cohort.Step();
  }
  // 25 more at constant powers.
  const std::vector<double> p = PowerPattern(model.num_cores(), 0, 99);
  step_others(99);
  cohort.SetPowers(1, p);
  for (std::size_t s = 0; s < 25; ++s) {
    sim.Step(p);
    cohort.Step();
  }

  EXPECT_TRUE(BitwiseEqual(sim.state(), cohort.MemberState(1)));
  EXPECT_EQ(sim.PeakDieTemp(), cohort.PeakDieTemp(1));
  const std::vector<double> die = sim.DieTemps();
  ASSERT_EQ(die.size(), model.num_cores());
  EXPECT_TRUE(BitwiseEqual(
      die, cohort.MemberState(1).first(model.num_cores())));
  EXPECT_NEAR(sim.time(), 225e-3, 1e-12);
  EXPECT_DOUBLE_EQ(sim.dt(), cohort.dt());
}

TEST(BatchStepPropagator, RejectsBadInputs) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  EXPECT_THROW(BatchStepPropagator(nullptr, 4), ContractViolation);
  EXPECT_THROW(BatchStepPropagator(prop, 0), ContractViolation);

  BatchStepPropagator batch(prop, 1);
  batch.AddMember(InitialState(model.num_nodes(), 0));
  EXPECT_THROW(batch.AddMember(InitialState(model.num_nodes(), 1)),
               ContractViolation);  // cohort full
  const std::vector<double> bad = {1.0, std::nan(""), 1.0, 1.0};
  EXPECT_THROW(batch.SetPowers(0, bad), std::invalid_argument);
  EXPECT_THROW(batch.SetPowers(0, std::vector<double>(3, 1.0)),
               ContractViolation);  // wrong width
  EXPECT_THROW((void)batch.PeakDieTemp(7), ContractViolation);
}

// TSan target: threads race the first PropagatorSet::For of one
// (model, dt), then each steps a cohort and a scalar-lane simulator
// over what it got. Every thread must get the one instance and reach
// bitwise the serial trajectory: the propagator is immutable, so
// sharing it needs no lock.
TEST(BatchStepPropagator, ConcurrentCohortsOverSharedPropagator) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto set = std::make_shared<const PropagatorSet>();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSteps = 26;
  const auto run_cohort = [&](std::shared_ptr<const StepPropagator> prop,
                              std::vector<double>* out) {
    BatchStepPropagator b(std::move(prop), 4);
    for (std::size_t j = 0; j < 4; ++j) {
      b.AddMember(InitialState(model.num_nodes(), j));
      b.SetPowers(j, PowerPattern(model.num_cores(), j, 0));
    }
    for (std::size_t s = 0; s < kSteps; ++s) b.Step();
    out->resize(model.num_nodes());
    b.CopyState(0, *out);
  };

  std::vector<std::shared_ptr<const StepPropagator>> props(kThreads);
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::vector<double>> scalar_got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      props[t] = set->For(model, 1e-3);
      run_cohort(props[t], &got[t]);
      // A scalar-lane simulator over the same set, as in a sweep where
      // scalar and batched workers coexist.
      TransientSimulator scalar(model, 1e-3, set);
      for (std::size_t s = 0; s < kSteps; ++s)
        scalar.Step(PowerPattern(model.num_cores(), 0, 0));
      scalar_got[t].assign(scalar.state().begin(), scalar.state().end());
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(set->size(), 1u);
  std::vector<double> ref;
  run_cohort(set->For(model, 1e-3), &ref);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(props[t].get(), props[0].get()) << "thread " << t;
    EXPECT_TRUE(BitwiseEqual(got[t], ref)) << "thread " << t;
    EXPECT_TRUE(BitwiseEqual(scalar_got[t], scalar_got[0]))
        << "thread " << t;
  }
}

}  // namespace
}  // namespace ds::thermal

namespace ds::runtime {
namespace {

/// The engine-level contract: CSV bytes do not depend on --batch-max-k
/// or thread count, and cohorts actually form for batchable kinds.
std::string SweepCsv(const char* spec_text, std::size_t batch_max_k,
                     std::size_t threads, SweepStats* stats = nullptr) {
  const SweepSpec spec = SweepSpec::FromJsonText(spec_text);
  ModelCache cache;
  SweepOptions opts;
  opts.threads = threads;
  opts.cache = &cache;
  opts.batch_max_k = batch_max_k;
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  if (stats != nullptr) *stats = out.stats;
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  return os.str();
}

constexpr const char* kBtUnitSpec = R"({
  "name": "bt_unit", "kind": "boost_transient", "seed": 3,
  "base": {"node": "16nm", "duration_s": 0.02, "control_ms": 1.0},
  "axes": {"app": ["x264", "ferret"], "instances": [1, 2],
           "power_cap_w": [300, 500]}
})";

std::string BoostCsv(std::size_t batch_max_k, std::size_t threads,
                     SweepStats* stats = nullptr) {
  return SweepCsv(kBtUnitSpec, batch_max_k, threads, stats);
}

TEST(SweepEngineBatchTest, CsvBytesIndependentOfBatchKAndThreads) {
  SweepStats scalar_stats, batched_stats;
  const std::string scalar = BoostCsv(1, 1, &scalar_stats);
  const std::string batched = BoostCsv(8, 1, &batched_stats);
  EXPECT_EQ(scalar, batched);
  EXPECT_EQ(scalar, BoostCsv(8, 4));
  EXPECT_EQ(scalar, BoostCsv(3, 2));
  // batch_max_k = 1 disables cohorts; 8 jobs sharing one cohort key
  // must actually batch.
  EXPECT_EQ(scalar_stats.batch_cohorts, 0u);
  EXPECT_GE(batched_stats.batch_cohorts, 1u);
  EXPECT_GE(batched_stats.batch_cohort_members, 2u);
  EXPECT_EQ(scalar_stats.jobs_executed, 8u);
  EXPECT_EQ(batched_stats.jobs_executed, 8u);
  EXPECT_EQ(batched_stats.jobs_failed, 0u);
}

// duration_s is a sweepable axis and RunBoostTransientCohort derives
// the cohort-wide step count from jobs[0], so the cohort key must
// split on it: jobs differing only in duration_s must never share a
// cohort (they would all be simulated for the first member's horizon).
TEST(SweepEngineBatchTest, MixedDurationJobsNeverShareACohort) {
  SweepPoint a;
  SweepPoint b = a;
  b.duration_s = 2.0 * a.duration_s;
  EXPECT_NE(BatchCohortKey(SweepKind::kBoostTransient, a),
            BatchCohortKey(SweepKind::kBoostTransient, b));

  constexpr const char* kMixedSpec = R"({
    "name": "bt_mixed_dur", "kind": "boost_transient", "seed": 3,
    "base": {"node": "16nm", "control_ms": 1.0},
    "axes": {"duration_s": [0.01, 0.02], "app": ["x264", "ferret"],
             "power_cap_w": [300, 500]}
  })";
  SweepStats scalar_stats, batched_stats;
  const std::string scalar = SweepCsv(kMixedSpec, 1, 1, &scalar_stats);
  const std::string batched = SweepCsv(kMixedSpec, 8, 2, &batched_stats);
  EXPECT_EQ(scalar, batched);
  EXPECT_EQ(scalar_stats.batch_cohorts, 0u);
  // Cohorts still form, but only within each duration group (4 jobs
  // per duration share a key), never across.
  EXPECT_GE(batched_stats.batch_cohorts, 2u);
  EXPECT_EQ(batched_stats.jobs_executed, 8u);
  EXPECT_EQ(batched_stats.jobs_failed, 0u);
}

}  // namespace
}  // namespace ds::runtime
