// The interned fast path is an optimization, not a behaviour change: this
// suite pins the interned lookup, the linear_lookup ablation, and the
// string-keyed reference path to bit-identical injection logs, bug lists,
// and coverage stats on all four campaigns, and unit-tests the SymbolTable
// the fast path is built on.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "core/controller.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "util/symbol_table.h"
#include "vlib/vfs.h"
#include "vlib/virtual_libc.h"
#include "vlib/vnet.h"

namespace lfi {
namespace {

// --- SymbolTable ------------------------------------------------------------

TEST(SymbolTable, InternIsIdempotentAndDense) {
  SymbolTable table;
  SymbolId read = table.Intern("read");
  SymbolId write = table.Intern("write");
  EXPECT_NE(read, write);
  EXPECT_EQ(table.Intern("read"), read);
  EXPECT_EQ(table.Intern("write"), write);
  EXPECT_EQ(table.size(), 2u);
  // Dense: the two ids are exactly {0, 1}.
  EXPECT_EQ(std::min(read, write), 0u);
  EXPECT_EQ(std::max(read, write), 1u);
}

TEST(SymbolTable, NameReferencesAreStableAcrossGrowth) {
  SymbolTable table;
  SymbolId first = table.Intern("first-symbol");
  const std::string& name = table.Name(first);
  // Grow well past one storage chunk; the reference must not move.
  for (int i = 0; i < 1000; ++i) {
    table.Intern("sym-" + std::to_string(i));
  }
  EXPECT_EQ(&name, &table.Name(first));
  EXPECT_EQ(name, "first-symbol");
  EXPECT_EQ(table.size(), 1001u);
}

TEST(SymbolTable, FindDoesNotIntern) {
  SymbolTable table;
  EXPECT_FALSE(table.Find("never-seen").has_value());
  EXPECT_EQ(table.size(), 0u);
  SymbolId id = table.Intern("seen");
  ASSERT_TRUE(table.Find("seen").has_value());
  EXPECT_EQ(*table.Find("seen"), id);
}

TEST(SymbolTable, ConcurrentInternAgreesOnIds) {
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::vector<std::vector<SymbolId>> ids(kThreads, std::vector<SymbolId>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &ids, t] {
      for (int i = 0; i < kNames; ++i) {
        ids[t][i] = table.Intern("name-" + std::to_string(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kNames));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(table.Name(ids[0][i]), "name-" + std::to_string(i));
  }
}

// --- unknown-function pass-through -----------------------------------------

TEST(FastPath, UnknownFunctionPassesThrough) {
  // A function the scenario does not mention -- even one interned after the
  // runtime was built -- must pass through without counting as interception.
  auto scenario = Scenario::Parse(R"(
<scenario>
  <trigger id="t" class="SingletonTrigger"/>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="t"/></function>
</scenario>)");
  ASSERT_TRUE(scenario.has_value());
  Runtime runtime(*scenario);
  VirtualFs fs;
  VirtualNet net;
  VirtualLibc libc(&fs, &net, "test");
  libc.set_interposer(&runtime);
  fs.MkDir("/d");
  fs.WriteFile("/d/f", "xx");
  int fd = libc.Open("/d/f", kORdOnly);  // "open": not associated, passes
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc.Lseek(fd, 0, kSeekEnd), 2);  // "lseek": not associated
  char buf[4];
  libc.Lseek(fd, 0, kSeekSet);
  EXPECT_EQ(libc.Read(fd, buf, 2), -1);  // "read": associated, injected
  libc.set_interposer(nullptr);
  // Only the associated function counted as a runtime interception.
  EXPECT_EQ(runtime.interceptions(), 1u);
  EXPECT_EQ(runtime.call_count("read"), 1u);
  EXPECT_EQ(runtime.call_count("open"), 0u);
  EXPECT_EQ(runtime.call_count("no_such_function"), 0u);
  // The boundary still counted everything (call-count trigger semantics).
  EXPECT_EQ(libc.CallCount("open"), 1u);
  EXPECT_EQ(libc.CallCount("lseek"), 2u);
}

// --- per-scenario log equivalence ------------------------------------------

Runtime::Options ModeOptions(int mode) {
  Runtime::Options options;
  options.linear_lookup = mode == 1;
  options.string_keyed_reference = mode == 2;
  return options;
}

const char* ModeName(int mode) {
  switch (mode) {
    case 1:
      return "linear_lookup";
    case 2:
      return "string_keyed_reference";
    default:
      return "interned";
  }
}

TEST(FastPath, InjectionLogsAreBitIdenticalAcrossLookupModes) {
  auto scenario = Scenario::Parse(R"(
<scenario>
  <trigger id="second" class="CallCountTrigger"><args><count>2</count></args></trigger>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="read" return="-1" errno="EIO">
    <reftrigger ref="second"/>
    <reftrigger ref="always"/>
  </function>
  <function name="pthread_mutex_lock" return="unused" errno="unused"><reftrigger ref="always"/></function>
  <function name="close" return="-1" errno="EBADF"><reftrigger ref="second"/></function>
</scenario>)");
  ASSERT_TRUE(scenario.has_value());

  auto drive = [&](int mode) {
    VirtualFs fs;
    VirtualNet net;
    VirtualLibc libc(&fs, &net, "probe");
    fs.MkDir("/d");
    fs.WriteFile("/d/f", "0123456789");
    TestController controller(*scenario, ModeOptions(mode));
    TestOutcome outcome = controller.RunTest(&libc, [&] {
      char buf[4];
      VMutex m{"m", 0};
      int fd = libc.Open("/d/f", kORdOnly);
      libc.MutexLock(&m);
      libc.Read(fd, buf, 4);
      libc.Read(fd, buf, 4);  // 2nd read: injected
      libc.MutexUnlock(&m);
      libc.Close(fd);
      libc.Close(fd);  // 2nd close: injected (EBADF already, still recorded)
      return true;
    });
    return outcome.log_text;
  };

  std::string interned = drive(0);
  EXPECT_FALSE(interned.empty());
  for (int mode : {1, 2}) {
    EXPECT_EQ(drive(mode), interned) << ModeName(mode);
  }
}

// --- campaign equivalence ---------------------------------------------------

struct LookupModeDefaults {
  explicit LookupModeDefaults(int mode) {
    Runtime::SetLookupModeDefaults(mode == 1, mode == 2);
  }
  ~LookupModeDefaults() { Runtime::SetLookupModeDefaults(false, false); }
};

// Runs `spec` through the driver, failing the test on a driver error.
CampaignOutcome Drive(const CampaignSpec& spec) {
  std::string error;
  auto outcome = CampaignDriver(spec).Run(&error);
  EXPECT_TRUE(outcome.has_value()) << error;
  return outcome ? std::move(*outcome) : CampaignOutcome{};
}

std::vector<FoundBug> RunCampaignInMode(const std::string& system, int mode) {
  LookupModeDefaults defaults(mode);
  return Drive({.system = system, .mode = CampaignMode::kTable1}).bugs;
}

std::string Render(const std::vector<FoundBug>& bugs) {
  std::string out;
  for (const FoundBug& b : bugs) {
    out += b.system + "|" + b.kind + "|" + b.where + "|" + b.injected + "\n";
  }
  return out;
}

TEST(FastPath, CampaignBugListsAreBitIdenticalAcrossLookupModes) {
  for (const std::string system : {"git", "mysql", "bind", "pbft"}) {
    std::string interned = Render(RunCampaignInMode(system, 0));
    EXPECT_FALSE(interned.empty()) << system;
    for (int mode : {1, 2}) {
      EXPECT_EQ(Render(RunCampaignInMode(system, mode)), interned)
          << system << " diverged under " << ModeName(mode);
    }
  }
}

TEST(FastPath, ExplorationCoverageIsBitIdenticalAcrossLookupModes) {
  auto explore = [](int mode) {
    LookupModeDefaults defaults(mode);
    return Drive({.system = "pbft",
                  .mode = CampaignMode::kExplore,
                  .strategy = ExploreStrategy::kCoverage,
                  .budget = 24,
                  .seed = 7});
  };
  CampaignOutcome interned = explore(0);
  auto interned_stats = interned.coverage.ComputeStats();
  EXPECT_GT(interned_stats.covered_blocks, 0u);
  for (int mode : {1, 2}) {
    CampaignOutcome other = explore(mode);
    EXPECT_EQ(Render(other.bugs), Render(interned.bugs)) << ModeName(mode);
    EXPECT_EQ(other.scenarios_run, interned.scenarios_run) << ModeName(mode);
    EXPECT_EQ(other.coverage.hits(), interned.coverage.hits()) << ModeName(mode);
    auto stats = other.coverage.ComputeStats();
    EXPECT_EQ(stats.covered_blocks, interned_stats.covered_blocks) << ModeName(mode);
    EXPECT_EQ(stats.covered_recovery_blocks, interned_stats.covered_recovery_blocks)
        << ModeName(mode);
    EXPECT_EQ(stats.covered_lines, interned_stats.covered_lines) << ModeName(mode);
  }
}

TEST(FastPath, InternedCampaignIsBitIdenticalAtOneTwoEightWorkers) {
  auto full = [](int workers) {
    return Render(Drive({.system = "all", .mode = CampaignMode::kTable1, .workers = workers}).bugs);
  };
  std::string baseline = full(1);
  EXPECT_FALSE(baseline.empty());
  for (int workers : {2, 8}) {
    EXPECT_EQ(full(workers), baseline) << workers << " workers";
  }
}

}  // namespace
}  // namespace lfi
