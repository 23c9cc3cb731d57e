// src/fault: plan parsing, injector determinism, end-to-end injection
// through the harness, balloon resilience under drops, the Demeter
// degradation state machine, and the cross-layer invariant checker
// (including that it actually catches deliberate corruption).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/fault/invariant_checker.h"
#include "src/harness/machine.h"
#include "src/hyper/hypervisor.h"

namespace demeter {
namespace {

// ------------------------------------------------------------ FaultPlan spec

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  const auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanTest, FullSpecParses) {
  const std::string spec =
      "bdelay=0.1/200us,bdrop=0.05,stall=5ms/25ms,crash=50ms/100ms,"
      "vqcap=8,pebsdrop=0.25,migfail=0.1,tierex=0.02";
  std::string error;
  const auto plan = FaultPlan::Parse(spec, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());
  EXPECT_DOUBLE_EQ(plan->balloon_delay_p, 0.1);
  EXPECT_EQ(plan->balloon_delay_ns, 200 * kMicrosecond);
  EXPECT_DOUBLE_EQ(plan->balloon_drop_p, 0.05);
  EXPECT_EQ(plan->stall_duration_ns, 5 * kMillisecond);
  EXPECT_EQ(plan->stall_period_ns, 25 * kMillisecond);
  EXPECT_EQ(plan->crash_duration_ns, 50 * kMillisecond);
  EXPECT_EQ(plan->crash_period_ns, 100 * kMillisecond);
  EXPECT_EQ(plan->vq_capacity, 8u);
  EXPECT_DOUBLE_EQ(plan->pebs_drop_p, 0.25);
  EXPECT_DOUBLE_EQ(plan->migration_fail_p, 0.1);
  EXPECT_DOUBLE_EQ(plan->tier_exhaust_p, 0.02);
}

TEST(FaultPlanTest, PoisonAndShrinkParse) {
  const std::string spec =
      "poison=0.002@0,poison=0.0005@1,tiershrink=0.3/2ms/10ms@0,"
      "tiershrink=0.25/5ms/20ms@1";
  std::string error;
  const auto plan = FaultPlan::Parse(spec, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());
  EXPECT_DOUBLE_EQ(plan->poison_p[0], 0.002);
  EXPECT_DOUBLE_EQ(plan->poison_p[1], 0.0005);
  EXPECT_DOUBLE_EQ(plan->tier_shrink[0].frac, 0.3);
  EXPECT_EQ(plan->tier_shrink[0].duration_ns, 2 * kMillisecond);
  EXPECT_EQ(plan->tier_shrink[0].period_ns, 10 * kMillisecond);
  EXPECT_DOUBLE_EQ(plan->tier_shrink[1].frac, 0.25);
  EXPECT_EQ(plan->tier_shrink[1].duration_ns, 5 * kMillisecond);
  EXPECT_EQ(plan->tier_shrink[1].period_ns, 20 * kMillisecond);
  // Poison probabilities map onto the per-tier fault sites.
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kPoisonFmem), 0.002);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kPoisonSmem), 0.0005);
}

TEST(FaultPlanTest, SwapFailParses) {
  std::string error;
  const auto plan = FaultPlan::Parse("swapfail=0.3/1ms", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());
  EXPECT_DOUBLE_EQ(plan->swap_fail_p, 0.3);
  EXPECT_EQ(plan->swap_retry_backoff_ns, kMillisecond);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kSwapFail), 0.3);
}

TEST(FaultPlanTest, MigrateFailParses) {
  std::string error;
  const auto plan =
      FaultPlan::Parse("migratefail=0.3/1ms@0,migratefail=0.5/2ms@3", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());
  EXPECT_DOUBLE_EQ(plan->migrate_fail_p[0], 0.3);
  EXPECT_EQ(plan->migrate_fail_abort_ns[0], kMillisecond);
  EXPECT_DOUBLE_EQ(plan->migrate_fail_p[3], 0.5);
  EXPECT_EQ(plan->migrate_fail_abort_ns[3], 2 * kMillisecond);
  EXPECT_DOUBLE_EQ(plan->migrate_fail_p[1], 0.0);
  // Per-host site: the flat per-site probability accessor stays zero.
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kLiveMigrateFail), 0.0);
}

TEST(FaultPlanTest, HostFailParses) {
  std::string error;
  const auto plan = FaultPlan::Parse("hostfail=0.5/8ms@0,hostfail=0.25/40ms@2", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());
  EXPECT_DOUBLE_EQ(plan->host_fail_p[0], 0.5);
  EXPECT_EQ(plan->host_fail_down_ns[0], 8 * kMillisecond);
  EXPECT_DOUBLE_EQ(plan->host_fail_p[2], 0.25);
  EXPECT_EQ(plan->host_fail_down_ns[2], 40 * kMillisecond);
  EXPECT_DOUBLE_EQ(plan->host_fail_p[1], 0.0);
  // Per-host site: the flat per-site probability accessor stays zero.
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kHostFail), 0.0);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "nonsense",            // No key=value shape.
      "bogus=1",             // Unknown key.
      "bdrop=1.5",           // Probability out of range.
      "bdrop=x",             // Not a number.
      "bdelay=0.5",          // Missing the /duration half.
      "bdelay=0.5/0",        // Delay needs a non-zero duration.
      "stall=5ms",           // Missing the /period half.
      "stall=50ms/10ms",     // Duration longer than period.
      "crash=5ms/0",         // Zero period.
      "vqcap=abc",           // Not an integer.
      "poison=0.5",          // Tiered key without @tier.
      "poison=0.5@2",        // Tier out of range.
      "poison=0.5@x",        // Tier not an integer.
      "poison=1.5@0",        // Probability out of range.
      "tiershrink=0.5@0",    // Missing duration/period halves.
      "tiershrink=0.5/3ms@0",        // Missing the period half.
      "tiershrink=2/3ms/10ms@0",     // Fraction out of range.
      "tiershrink=0.5/30ms/10ms@0",  // Duration longer than period.
      "tiershrink=0.5/0/10ms@0",     // Zero duration.
      "swapfail=0.5",                // Missing the /backoff half.
      "swapfail=0.5/0",              // Zero retry backoff.
      "swapfail=1.5/1ms",            // Probability out of range.
      "swapfail=x/1ms",              // Not a number.
      "migratefail=0.5/1ms",         // Hosted key without @host.
      "migratefail=0.5/1ms@8",       // Host out of range.
      "migratefail=0.5/1ms@x",       // Host not an integer.
      "migratefail=0.5@0",           // Missing the /abort-threshold half.
      "migratefail=0.5/0@0",         // Zero abort threshold.
      "migratefail=1.5/1ms@0",       // Probability out of range.
      "hostfail=0.5/1ms",            // Hosted key without @host.
      "hostfail=0.5/1ms@8",          // Host out of range.
      "hostfail=0.5/1ms@x",          // Host not an integer.
      "hostfail=0.5@0",              // Missing the /down-duration half.
      "hostfail=0.5/0@0",            // Zero down duration.
      "hostfail=1.5/1ms@0",          // Probability out of range.
      "pebsdrop=nan",                // Not a finite probability.
      "poison=nan@0",                // Not a finite probability.
      "hostfail=nan/8ms@1",          // Not a finite probability.
      "vqcap=-1",                    // Negative (strtoull would wrap it).
      "vqcap=+8",                    // Must start with a digit.
      "vqcap=18446744073709551616",  // Above UINT64_MAX.
      "swapfail=0.5/-2ms",           // Negative duration.
      "crash=1ms/-5ms",              // Negative period.
      "bdelay=0.5/ 3ms",             // Must start with a digit.
      "stall=20000000000s/30000000000s",  // Scaled past UINT64_MAX ns.
      "hostfail=0.5/18446744073709552us@0",  // Scaled past UINT64_MAX ns.
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// Accepted inputs the tests above do not reach: one key on several tiers
// or hosts, two per-host keys on one host, zero-valued tokens, UINT64_MAX
// counts and durations, leading zeros and exponent notation. Each must
// parse to exactly the plan beside it, every other field at its default.
TEST(FaultPlanTest, EdgeSpecsParseToTheirFields) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const struct {
    const char* spec;
    FaultPlan plan;
  } cases[] = {
      {"poison=0.1@0,poison=0.2@1", {.poison_p = {0.1, 0.2}}},
      {"migratefail=0.1/1ms@0,migratefail=0.2/1ms@1",
       {.migrate_fail_p = {0.1, 0.2}, .migrate_fail_abort_ns = {kMillisecond, kMillisecond}}},
      {"hostfail=0.1/1ms@0,hostfail=0.2/1ms@1",
       {.host_fail_p = {0.1, 0.2}, .host_fail_down_ns = {kMillisecond, kMillisecond}}},
      {"migratefail=0.1/1ms@0,hostfail=0.2/1ms@0",
       {.migrate_fail_p = {0.1},
        .migrate_fail_abort_ns = {kMillisecond},
        .host_fail_p = {0.2},
        .host_fail_down_ns = {kMillisecond}}},
      {"bdrop=0.3,pebsdrop=0.7", {.balloon_drop_p = 0.3, .pebs_drop_p = 0.7}},
      {"bdrop=0,pebsdrop=1,stall=0/0,vqcap=0", {.pebs_drop_p = 1.0}},
      {"vqcap=18446744073709551615", {.vq_capacity = kMax}},
      {"stall=18446744073709551615ns/18446744073709551615",
       {.stall_duration_ns = kMax, .stall_period_ns = kMax}},
      {"crash=18446744073s/18446744073709551us",
       {.crash_duration_ns = 18446744073 * kSecond,
        .crash_period_ns = 18446744073709551 * kMicrosecond}},
      {"bdelay=0.1/007ms,swapfail=1e-3/1s",
       {.balloon_delay_p = 0.1,
        .balloon_delay_ns = 7 * kMillisecond,
        .swap_fail_p = 0.001,
        .swap_retry_backoff_ns = kSecond}},
  };
  for (const auto& c : cases) {
    std::string error;
    const auto plan = FaultPlan::Parse(c.spec, &error);
    ASSERT_TRUE(plan.has_value()) << c.spec << ": " << error;
    EXPECT_TRUE(*plan == c.plan) << c.spec;
  }
}

TEST(FaultPlanTest, ErrorsNameTheOffendingToken) {
  // Fail-fast diagnostics: long specs must pinpoint the bad token and the
  // reason, so a typo in one key can't masquerade as a different fault mix.
  struct Case {
    const char* spec;    // Full spec handed to Parse.
    const char* token;   // The token the error must quote.
    const char* detail;  // Substring of the inner diagnostic.
  };
  const Case cases[] = {
      {"bdrop=0.1,bogus=1", "bogus=1", "unknown fault key 'bogus'"},
      {"bdrop=0.1,bdrop=0.2", "bdrop=0.2", "duplicate fault key 'bdrop'"},
      {"poison=0.1@0,poison=0.2@0", "poison=0.2@0", "duplicate fault key 'poison@0'"},
      {"tiershrink=0.1/1ms/2ms@1,tiershrink=0.2/1ms/2ms@1", "tiershrink=0.2/1ms/2ms@1",
       "duplicate fault key 'tiershrink@1'"},
      {"poison=0.5", "poison=0.5", "needs an @tier suffix"},
      {"poison=0.5@7", "poison=0.5@7", "tier must be an integer in [0,1]"},
      {"poison=1.5@0", "poison=1.5@0", "probability must be a number in [0,1]"},
      {"tiershrink=0.5/20ms/10ms@0", "tiershrink=0.5/20ms/10ms@0",
       "tiershrink needs 0 < duration <= period"},
      {"bdrop=9", "bdrop=9", "probability must be a number in [0,1]"},
      {"bdrop=0.1,swapfail=0.5", "swapfail=0.5", "expected 'A/B'"},
      {"swapfail=0.5/0", "swapfail=0.5/0", "swapfail needs a non-zero retry backoff"},
      {"migratefail=0.1/1ms@0,migratefail=0.2/1ms@0", "migratefail=0.2/1ms@0",
       "duplicate fault key 'migratefail@0'"},
      {"migratefail=0.5/1ms", "migratefail=0.5/1ms", "needs an @host suffix"},
      {"migratefail=0.5/1ms@9", "migratefail=0.5/1ms@9", "host must be an integer in [0,7]"},
      {"migratefail=0.5/0@1", "migratefail=0.5/0@1",
       "migratefail needs a non-zero abort threshold"},
      {"hostfail=0.1/1ms@0,hostfail=0.2/1ms@0", "hostfail=0.2/1ms@0",
       "duplicate fault key 'hostfail@0'"},
      {"hostfail=0.5/1ms", "hostfail=0.5/1ms", "needs an @host suffix"},
      {"hostfail=0.5/1ms@9", "hostfail=0.5/1ms@9", "host must be an integer in [0,7]"},
      {"hostfail=0.5/0@1", "hostfail=0.5/0@1", "hostfail needs a non-zero down duration"},
      {"bdrop=0.1,pebsdrop=nan", "pebsdrop=nan", "probability must be a number in [0,1]"},
      {"vqcap=-1", "vqcap=-1", "vqcap must be a non-negative 64-bit integer"},
      {"stall=1ms/2ms,crash=1ms/-5ms", "crash=1ms/-5ms", "duration must be a non-negative"},
  };
  for (const Case& c : cases) {
    std::string error;
    ASSERT_FALSE(FaultPlan::Parse(c.spec, &error).has_value()) << c.spec;
    EXPECT_NE(error.find(std::string("bad --faults token '") + c.token + "'"),
              std::string::npos)
        << c.spec << " -> " << error;
    EXPECT_NE(error.find(c.detail), std::string::npos) << c.spec << " -> " << error;
  }
  // The same key on *different* tiers (or hosts) is legal, not a duplicate.
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse("poison=0.1@0,poison=0.2@1", &error).has_value()) << error;
  EXPECT_TRUE(FaultPlan::Parse("migratefail=0.1/1ms@0,migratefail=0.2/1ms@1", &error)
                  .has_value())
      << error;
  EXPECT_TRUE(
      FaultPlan::Parse("hostfail=0.1/1ms@0,hostfail=0.2/1ms@1", &error).has_value())
      << error;
  // hostfail and migratefail share the host namespace without colliding.
  EXPECT_TRUE(
      FaultPlan::Parse("migratefail=0.1/1ms@0,hostfail=0.2/1ms@0", &error).has_value())
      << error;
}

TEST(FaultPlanTest, ProbabilityPerSite) {
  const auto plan = FaultPlan::Parse("bdrop=0.3,pebsdrop=0.7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kBalloonDrop), 0.3);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kPebsSampleLoss), 0.7);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kBalloonDelay), 0.0);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kSwapFail), 0.0);
  // Window and capacity sites are not probability-driven.
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kGuestStall), 0.0);
  EXPECT_DOUBLE_EQ(plan->probability(FaultSite::kVirtqueueFull), 0.0);
}

// --------------------------------------------------------------- Injector

std::vector<bool> Draw(FaultInjector& injector, FaultSite site, int vm, int n) {
  std::vector<bool> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(injector.ShouldInject(site, vm));
  }
  return out;
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  const auto plan = FaultPlan::Parse("bdrop=0.5");
  FaultInjector a(*plan, 42);
  FaultInjector b(*plan, 42);
  EXPECT_EQ(Draw(a, FaultSite::kBalloonDrop, 0, 256), Draw(b, FaultSite::kBalloonDrop, 0, 256));
  FaultInjector c(*plan, 43);
  EXPECT_NE(Draw(a, FaultSite::kBalloonDrop, 0, 256), Draw(c, FaultSite::kBalloonDrop, 0, 256));
}

TEST(FaultInjectorTest, MigrationFailuresDrawPerHost) {
  const auto plan = FaultPlan::Parse("migratefail=0.5/1ms@0,migratefail=0.5/1ms@1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector a(*plan, 42);
  FaultInjector b(*plan, 42);
  std::vector<bool> h0a, h0b, h1a;
  for (int i = 0; i < 64; ++i) {
    h0a.push_back(a.ShouldFailMigration(0));
    h1a.push_back(a.ShouldFailMigration(1));
    h0b.push_back(b.ShouldFailMigration(0));
  }
  EXPECT_EQ(h0a, h0b);  // Same seed, same per-host decision stream.
  EXPECT_NE(h0a, h1a);  // Hosts draw from independent streams.
  EXPECT_EQ(a.MigrationAbortAfter(0), kMillisecond);
  EXPECT_GT(a.total_injected(FaultSite::kLiveMigrateFail), 0u);
  // A host with no armed plan never fires.
  const auto one = FaultPlan::Parse("migratefail=1.0/1ms@0");
  ASSERT_TRUE(one.has_value());
  FaultInjector armed(*one, 7);
  EXPECT_TRUE(armed.ShouldFailMigration(0));
  EXPECT_FALSE(armed.ShouldFailMigration(1));
  EXPECT_EQ(armed.MigrationAbortAfter(1), 0u);
}

TEST(FaultInjectorTest, HostFailuresDrawPerHost) {
  const auto plan = FaultPlan::Parse("hostfail=0.5/8ms@0,hostfail=0.5/8ms@1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector a(*plan, 42);
  FaultInjector b(*plan, 42);
  std::vector<bool> h0a, h0b, h1a;
  for (int i = 0; i < 64; ++i) {
    h0a.push_back(a.ShouldFailHost(0));
    h1a.push_back(a.ShouldFailHost(1));
    h0b.push_back(b.ShouldFailHost(0));
  }
  EXPECT_EQ(h0a, h0b);  // Same seed, same per-host decision stream.
  EXPECT_NE(h0a, h1a);  // Hosts draw from independent streams.
  EXPECT_EQ(a.HostFailDuration(0), 8 * kMillisecond);
  EXPECT_GT(a.total_injected(FaultSite::kHostFail), 0u);
  // A host with no armed plan never fires and burns no RNG state.
  const auto one = FaultPlan::Parse("hostfail=1.0/1ms@0");
  ASSERT_TRUE(one.has_value());
  FaultInjector armed(*one, 7);
  EXPECT_TRUE(armed.ShouldFailHost(0));
  EXPECT_FALSE(armed.ShouldFailHost(1));
  EXPECT_EQ(armed.HostFailDuration(1), 0u);
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // Adding a second fault kind to the plan must not perturb the first
  // site's decision stream, even when draws interleave.
  const auto only_drop = FaultPlan::Parse("bdrop=0.3");
  const auto both = FaultPlan::Parse("bdrop=0.3,pebsdrop=0.7");
  FaultInjector a(*only_drop, 42);
  FaultInjector b(*both, 42);
  std::vector<bool> a_drops;
  std::vector<bool> b_drops;
  for (int i = 0; i < 256; ++i) {
    a_drops.push_back(a.ShouldInject(FaultSite::kBalloonDrop, 0));
    b_drops.push_back(b.ShouldInject(FaultSite::kBalloonDrop, 0));
    (void)b.ShouldInject(FaultSite::kPebsSampleLoss, 0);  // Interleave.
  }
  EXPECT_EQ(a_drops, b_drops);
}

TEST(FaultInjectorTest, VmsDrawFromIndependentStreams) {
  const auto plan = FaultPlan::Parse("bdrop=0.5");
  FaultInjector injector(*plan, 42);
  EXPECT_NE(Draw(injector, FaultSite::kBalloonDrop, 0, 256),
            Draw(injector, FaultSite::kBalloonDrop, 1, 256));
}

TEST(FaultInjectorTest, CountsInjections) {
  const auto plan = FaultPlan::Parse("bdrop=1");
  FaultInjector injector(*plan, 42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.ShouldInject(FaultSite::kBalloonDrop, 0));
  }
  EXPECT_EQ(injector.injected(FaultSite::kBalloonDrop, 0), 10u);
  EXPECT_EQ(injector.total_injected(FaultSite::kBalloonDrop), 10u);
  EXPECT_EQ(injector.injected(FaultSite::kBalloonDrop, 1), 0u);
}

TEST(FaultInjectorTest, WindowsArePureFunctionsOfTime) {
  const auto plan = FaultPlan::Parse("stall=5ms/20ms,crash=2ms/50ms");
  FaultInjector injector(*plan, 42);
  // Window k covers [k*period, k*period + duration) for k >= 1 — never t=0.
  EXPECT_FALSE(injector.InStallWindow(0));
  EXPECT_FALSE(injector.InStallWindow(3 * kMillisecond));
  EXPECT_TRUE(injector.InStallWindow(20 * kMillisecond));
  EXPECT_TRUE(injector.InStallWindow(25 * kMillisecond - 1));
  EXPECT_FALSE(injector.InStallWindow(25 * kMillisecond));
  EXPECT_TRUE(injector.InStallWindow(40 * kMillisecond));
  EXPECT_EQ(injector.StallWindowEnd(21 * kMillisecond), 25 * kMillisecond);
  EXPECT_FALSE(injector.InCrashWindow(0));
  EXPECT_TRUE(injector.InCrashWindow(50 * kMillisecond));
  EXPECT_FALSE(injector.InCrashWindow(52 * kMillisecond));
  EXPECT_EQ(injector.CrashWindowEnd(50 * kMillisecond), 52 * kMillisecond);
}

TEST(FaultInjectorTest, ShrinkWindowsArePerTierPureFunctionsOfTime) {
  const auto plan = FaultPlan::Parse("tiershrink=0.5/5ms/20ms@1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan, 42);
  // Tier 0 has no schedule: never in a window, no next start.
  EXPECT_FALSE(injector.InShrinkWindow(0, 0));
  EXPECT_FALSE(injector.InShrinkWindow(0, 20 * kMillisecond));
  EXPECT_EQ(injector.NextShrinkWindowStart(0, 0), 0u);
  // Tier 1: window k covers [k*period, k*period + duration) for k >= 1.
  EXPECT_FALSE(injector.InShrinkWindow(1, 0));
  EXPECT_FALSE(injector.InShrinkWindow(1, 4 * kMillisecond));
  EXPECT_TRUE(injector.InShrinkWindow(1, 20 * kMillisecond));
  EXPECT_TRUE(injector.InShrinkWindow(1, 25 * kMillisecond - 1));
  EXPECT_FALSE(injector.InShrinkWindow(1, 25 * kMillisecond));
  EXPECT_TRUE(injector.InShrinkWindow(1, 40 * kMillisecond));
  EXPECT_EQ(injector.ShrinkWindowEnd(1, 21 * kMillisecond), 25 * kMillisecond);
  EXPECT_EQ(injector.NextShrinkWindowStart(1, 0), 20 * kMillisecond);
  EXPECT_EQ(injector.NextShrinkWindowStart(1, 20 * kMillisecond), 40 * kMillisecond);
  EXPECT_EQ(injector.NextShrinkWindowStart(1, 39 * kMillisecond), 40 * kMillisecond);
}

// ------------------------------------------------- End-to-end through Machine

MachineConfig FaultHost(const std::string& fault_spec, int vms = 1) {
  MachineConfig config;
  const uint64_t per_vm = 32 * kMiB;
  config.tiers = {TierSpec::LocalDram(10 * kMiB * static_cast<uint64_t>(vms)),
                  TierSpec::Pmem(3 * per_vm * static_cast<uint64_t>(vms))};
  std::string error;
  const auto plan = FaultPlan::Parse(fault_spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  config.faults = *plan;
  return config;
}

VmSetup FaultVm(PolicyKind policy) {
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = 2;
  setup.workload = "gups";
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = 150000;
  setup.policy = policy;
  setup.provision = ProvisionMode::kDemeterBalloon;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 2 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  return setup;
}

TEST(MachineFaultTest, EmptyPlanCreatesNoInjector) {
  Machine machine(FaultHost(""));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  EXPECT_EQ(machine.fault_injector(), nullptr);
  // Fault-free runs expose no fault counters at all.
  EXPECT_EQ(machine.result(0).metrics.Find("fault/balloon_drop_injected"), nullptr);
}

TEST(MachineFaultTest, ProbabilitySitesInjectAndAreCounted) {
  // Balloon sites need high probabilities: a steady workload only issues a
  // handful of balloon requests (initial provisioning), so low-probability
  // draws can legitimately never fire there.
  Machine machine(
      FaultHost("bdelay=0.7/100us,bdrop=0.7,pebsdrop=0.25,migfail=0.2,tierex=0.05"));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  ASSERT_NE(machine.fault_injector(), nullptr);
  const MetricSnapshot& m = machine.result(0).metrics;
  EXPECT_GT(m.CounterValue("fault/balloon_delay_injected"), 0u);
  EXPECT_GT(m.CounterValue("fault/balloon_drop_injected"), 0u);
  EXPECT_GT(m.CounterValue("fault/pebs_sample_loss_injected"), 0u);
  EXPECT_GT(m.CounterValue("fault/migration_fail_injected"), 0u);
  EXPECT_GT(m.CounterValue("fault/tier_exhaustion_injected"), 0u);
  // Dropped balloon requests must have forced timeouts and retransmits.
  EXPECT_GT(m.CounterValue("balloon/timeouts"), 0u);
  EXPECT_GT(m.CounterValue("balloon/retries"), 0u);
}

TEST(MachineFaultTest, BalloonSurvivesHeavyDrops) {
  // With every other request lost, the retry/backoff machinery must still
  // converge provisioning (possibly short, never wedged).
  Machine machine(FaultHost("bdrop=0.5"));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  const VmRunResult& result = machine.result(0);
  EXPECT_GE(result.transactions, 150000u);
  EXPECT_GT(result.metrics.CounterValue("balloon/retries"), 0u);
  // Retries are bounded: every abandonment implies max_retries timeouts.
  EXPECT_LE(result.metrics.CounterValue("balloon/retries"),
            result.metrics.CounterValue("balloon/timeouts"));
}

TEST(MachineFaultTest, DegradationEntersAndRecovers) {
  // Crash the guest engine for 4 ms of every 10 ms with 1 ms epochs: the
  // watchdog must degrade during windows and re-delegate after them.
  MachineConfig host = FaultHost("crash=4ms/10ms");
  Machine machine(host);
  VmSetup setup = FaultVm(PolicyKind::kDemeter);
  setup.demeter.range.epoch_length = 1 * kMillisecond;
  setup.demeter.degradation.unresponsive_after = 2 * kMillisecond;
  setup.demeter.degradation.watchdog_period = 1 * kMillisecond;
  setup.target_transactions = 400000;
  machine.AddVm(setup);
  machine.Run();
  const MetricSnapshot& m = machine.result(0).metrics;
  EXPECT_GT(m.CounterValue("policy/degraded_entries"), 0u);
  EXPECT_GT(m.CounterValue("policy/recoveries"), 0u);
  EXPECT_GT(m.CounterValue("policy/epochs_deferred"), 0u);
  EXPECT_LE(m.CounterValue("policy/recoveries"), m.CounterValue("policy/degraded_entries"));
}

TEST(MachineFaultTest, NoFallbackAblationNeverDegrades) {
  MachineConfig host = FaultHost("crash=4ms/10ms");
  Machine machine(host);
  VmSetup setup = FaultVm(PolicyKind::kDemeter);
  setup.demeter.range.epoch_length = 1 * kMillisecond;
  setup.demeter.degradation.enabled = false;
  setup.target_transactions = 400000;
  machine.AddVm(setup);
  machine.Run();
  const MetricSnapshot& m = machine.result(0).metrics;
  // Epochs still defer (the guest suffers the crash), but no watchdog acts.
  EXPECT_GT(m.CounterValue("policy/epochs_deferred"), 0u);
  EXPECT_EQ(m.CounterValue("policy/degraded_entries"), 0u);
  EXPECT_EQ(m.CounterValue("policy/host_migrations"), 0u);
}

TEST(MachineFaultTest, PoisonRecoversCleanOrDiscardsDirty) {
  // Memory errors on both tiers: every event must resolve to either a clean
  // migration-recovery or a SIGBUS discard, frames must go offline, and the
  // TMM must never pick a poisoned frame as a migration destination.
  Machine machine(FaultHost("poison=0.0005@0,poison=0.0005@1"));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  const Hypervisor& hyper = machine.hypervisor();
  const Hypervisor::PoisonStats& poison = hyper.poison_stats();
  ASSERT_GT(poison.events, 0u);
  EXPECT_EQ(poison.frames_offlined, poison.events);
  EXPECT_EQ(poison.clean_recoveries + poison.sigbus_deliveries, poison.events);
  EXPECT_EQ(poison.pages_lost, poison.sigbus_deliveries);
  EXPECT_EQ(poison.bad_destination, 0u);
  // Host metrics mirror the stats struct.
  const MetricSnapshot m = machine.SnapshotMetrics();
  EXPECT_EQ(m.CounterValue("host/poison/events"), poison.events);
  EXPECT_EQ(m.CounterValue("host/poison/bad_destination"), 0u);
  // Every SIGBUS discard unmapped a guest page through the kernel.
  EXPECT_EQ(machine.result(0).metrics.CounterValue("kernel/sigbus_discards"),
            poison.sigbus_deliveries);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
}

TEST(MachineFaultTest, TierShrinkWindowsCarveAndRestore) {
  // Periodic FMEM shrink windows: capacity leaves, emergency evictions keep
  // the carve honest, and after the run the restored free lists reconcile.
  Machine machine(FaultHost("tiershrink=0.4/3ms/12ms@0"));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  const Hypervisor& hyper = machine.hypervisor();
  const Hypervisor::TierShrinkStats& shrink = hyper.shrink_stats(0);
  EXPECT_GT(shrink.windows, 0u);
  EXPECT_GT(shrink.carved_pages, 0u);
  // Outside any window nothing stays carved.
  EXPECT_EQ(machine.hypervisor().memory().CarvedPages(0), 0u);
  EXPECT_EQ(hyper.poison_stats().bad_destination, 0u);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
}

TEST(MachineFaultTest, CrashPlusTierShrinkStaysConsistent) {
  // Satellite regression: a degraded guest (crash windows) while the host
  // simultaneously shrinks FMEM — the host fallback must tolerate shrunk
  // destinations mid-drain and the cross-layer invariants must hold.
  MachineConfig host = FaultHost("crash=4ms/10ms,tiershrink=0.3/3ms/12ms@0");
  Machine machine(host);
  VmSetup setup = FaultVm(PolicyKind::kDemeter);
  setup.demeter.range.epoch_length = 1 * kMillisecond;
  setup.demeter.degradation.unresponsive_after = 2 * kMillisecond;
  setup.demeter.degradation.watchdog_period = 1 * kMillisecond;
  setup.target_transactions = 400000;
  machine.AddVm(setup);
  machine.Run();
  EXPECT_GE(machine.result(0).transactions, 400000u);
  const MetricSnapshot& m = machine.result(0).metrics;
  EXPECT_GT(m.CounterValue("policy/degraded_entries"), 0u);
  const Hypervisor& hyper = machine.hypervisor();
  EXPECT_GT(hyper.shrink_stats(0).windows, 0u);
  EXPECT_EQ(hyper.poison_stats().bad_destination, 0u);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
}

// ------------------------------------------------------- Invariant checker

TEST(InvariantCheckerTest, CleanRunPasses) {
  Machine machine(FaultHost(""));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_GT(report.gpt_pages_audited, 0u);
  EXPECT_GT(report.ept_pages_audited, 0u);
}

TEST(InvariantCheckerTest, FaultedRunPasses) {
  // Faults must degrade performance, never consistency.
  Machine machine(FaultHost("bdrop=0.3,stall=2ms/8ms,crash=3ms/20ms,migfail=0.2,tierex=0.05"));
  machine.AddVm(FaultVm(PolicyKind::kDemeter));
  machine.Run();
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.Join();
}

TEST(InvariantCheckerTest, CatchesEptDoubleMapping) {
  Machine machine(FaultHost(""));
  machine.AddVm(FaultVm(PolicyKind::kStatic));
  machine.Run();
  ASSERT_TRUE(machine.CheckInvariants().ok());
  // Deliberately point one gPA at another's frame: the frame now backs two
  // guest pages, which the EPT/host-allocator bijection must flag.
  std::vector<std::pair<PageNum, uint64_t>> backed;
  machine.vm(0).ept().ForEachPresent(0, PageTable::kMaxPage,
                                     [&](PageNum gpa, uint64_t frame, bool, bool) {
                                       if (backed.size() < 2) {
                                         backed.emplace_back(gpa, frame);
                                       }
                                     });
  ASSERT_GE(backed.size(), 2u);
  ASSERT_TRUE(machine.vm(0).ept().Remap(backed[0].first, backed[1].second));
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_FALSE(report.ok());
}

TEST(InvariantCheckerTest, CatchesFreedBackingFrame) {
  Machine machine(FaultHost(""));
  machine.AddVm(FaultVm(PolicyKind::kStatic));
  machine.Run();
  ASSERT_TRUE(machine.CheckInvariants().ok());
  // Free a frame the EPT still references: a dangling backing pointer.
  std::vector<uint64_t> frames;
  machine.vm(0).ept().ForEachPresent(0, PageTable::kMaxPage,
                                     [&](PageNum, uint64_t frame, bool, bool) {
                                       if (frames.empty()) {
                                         frames.push_back(frame);
                                       }
                                     });
  ASSERT_EQ(frames.size(), 1u);
  machine.hypervisor().memory().Free(frames[0]);
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_FALSE(report.ok());
}

TEST(InvariantCheckerTest, CatchesMappingToPoisonedFrame) {
  Machine machine(FaultHost(""));
  machine.AddVm(FaultVm(PolicyKind::kStatic));
  machine.Run();
  ASSERT_TRUE(machine.CheckInvariants().ok());
  // Offline a frame the EPT still maps: hwpoison containment demands no
  // live translation ever points at a poisoned frame.
  std::vector<uint64_t> frames;
  machine.vm(0).ept().ForEachPresent(0, PageTable::kMaxPage,
                                     [&](PageNum, uint64_t frame, bool, bool) {
                                       if (frames.empty()) {
                                         frames.push_back(frame);
                                       }
                                     });
  ASSERT_EQ(frames.size(), 1u);
  machine.hypervisor().memory().Poison(static_cast<FrameId>(frames[0]));
  const InvariantReport report = machine.CheckInvariants();
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const std::string& v : report.violations) {
    if (v.find("hw-poisoned") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.Join();
}

}  // namespace
}  // namespace demeter
