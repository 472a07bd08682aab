#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/pbft/pbft.h"
#include "core/controller.h"
#include "core/distributed.h"
#include "core/runtime.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {
namespace {

class PbftTest : public ::testing::Test {
 protected:
  PbftTest() { EnsureStockTriggersRegistered(); }
  VirtualFs fs_;
};

TEST_F(PbftTest, ServesRequestsWithoutFaults) {
  VirtualNet net(1);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  int ticks = cluster.RunWorkload(/*requests=*/20, /*max_ticks=*/2000);
  EXPECT_EQ(cluster.client().completed(), 20);
  EXPECT_LT(ticks, 2000);
  EXPECT_FALSE(cluster.crashed());
  // All replicas execute all requests in the same order (state digests agree).
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica(i).executed(), 20);
  }
}

TEST_F(PbftTest, ReplicasAgreeOnExecutionCount) {
  VirtualNet net(2);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 2000);
  int64_t executed = cluster.replica(0).executed();
  for (int i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).executed(), executed);
  }
}

TEST_F(PbftTest, PeriodicCheckpointsWritten) {
  VirtualNet net(3);
  PbftConfig config;
  config.checkpoint_interval = 8;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 3000);
  EXPECT_TRUE(fs_.FileExists("/pbft/replica0.ckpt"));
}

TEST_F(PbftTest, SurvivesModeratePhysicalLoss) {
  VirtualNet net(4);
  net.set_loss_probability(0.2);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 8000);
  EXPECT_EQ(cluster.client().completed(), 10);
  EXPECT_FALSE(cluster.crashed());
}

TEST_F(PbftTest, LossSlowsThroughputMonotonically) {
  auto ticks_for = [&](double loss) {
    VirtualFs fs;
    VirtualNet net(7);
    net.set_loss_probability(loss);
    PbftConfig config;
    PbftCluster cluster(&fs, &net, config);
    EXPECT_TRUE(cluster.Start());
    return cluster.RunWorkload(15, 50000);
  };
  int base = ticks_for(0.0);
  int heavy = ticks_for(0.8);
  EXPECT_GT(heavy, base);
}

TEST_F(PbftTest, ShutdownWritesFinalCheckpoint) {
  VirtualNet net(5);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(5, 2000);
  cluster.replica(1).Shutdown();
  EXPECT_TRUE(fs_.FileExists("/pbft/replica1.final"));
}

TEST_F(PbftTest, ShutdownFopenBugCrashes) {
  VirtualNet net(6);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(5, 2000);

  const AppBinary& binary = PbftBinary();
  Scenario s;
  TriggerDecl decl;
  decl.id = "site";
  decl.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(binary.image().module_name());
  frame->AddChild("offset")->set_text(StrFormat("%x", binary.SiteOffset("pbft.shutdown.fopen")));
  decl.args = std::shared_ptr<XmlNode>(args.release());
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "fopen";
  assoc.retval = 0;
  assoc.errno_value = kEINVAL;
  assoc.triggers.push_back(TriggerRef{"site", false});
  s.AddFunction(std::move(assoc));

  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&cluster.replica(0).libc(), [&] {
    cluster.replica(0).Shutdown();
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_NE(outcome.crash_where.find("fwrite"), std::string::npos);
}

// The release/debug asymmetry of the view-change bug.
class PbftViewChangeBug : public ::testing::TestWithParam<bool> {};

TEST_P(PbftViewChangeBug, DebugBuildHaltsReleaseBuildCrashes) {
  bool debug_build = GetParam();
  bool saw_release_crash = false;
  bool saw_debug_halt = false;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    VirtualFs fs;
    VirtualNet net(seed);
    PbftConfig config;
    config.debug_build = debug_build;
    PbftCluster cluster(&fs, &net, config);
    ASSERT_TRUE(cluster.Start());

    Scenario dist;
    TriggerDecl decl;
    decl.id = "dist";
    decl.class_name = "DistributedTrigger";
    dist.AddTrigger(decl);
    for (const char* fn : {"sendto", "recvfrom"}) {
      FunctionAssoc assoc;
      assoc.function = fn;
      assoc.retval = -1;
      assoc.errno_value = kEIO;
      assoc.triggers.push_back(TriggerRef{"dist", false});
      dist.AddFunction(assoc);
    }
    RandomLossController controller(0.35, seed);
    std::vector<std::unique_ptr<Runtime>> runtimes;
    for (int i = 0; i < cluster.n(); ++i) {
      cluster.replica(i).libc().SetService(DistributedController::kServiceName, &controller);
      runtimes.push_back(std::make_unique<Runtime>(dist));
      cluster.replica(i).libc().set_interposer(runtimes.back().get());
    }
    cluster.RunWorkload(30, 4000);
    if (cluster.crashed()) {
      EXPECT_FALSE(debug_build) << "debug build must not crash: "
                                << cluster.crash_reason();
      saw_release_crash = true;
      break;
    }
    for (int i = 0; i < cluster.n(); ++i) {
      if (cluster.replica(i).halted()) {
        saw_debug_halt = true;
      }
    }
    if (debug_build && saw_debug_halt) {
      break;
    }
  }
  if (debug_build) {
    EXPECT_TRUE(saw_debug_halt);
  } else {
    EXPECT_TRUE(saw_release_crash);
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, PbftViewChangeBug, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "debug" : "release";
                         });

TEST_F(PbftTest, ViewChangeReplacesPrimary) {
  // Black out the primary's communication entirely: the backups elect a new
  // primary and the system keeps serving requests.
  VirtualNet net(8);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());

  Scenario dist;
  TriggerDecl decl;
  decl.id = "dist";
  decl.class_name = "DistributedTrigger";
  dist.AddTrigger(decl);
  for (const char* fn : {"sendto", "recvfrom"}) {
    FunctionAssoc assoc;
    assoc.function = fn;
    assoc.retval = -1;
    assoc.errno_value = kEIO;
    assoc.triggers.push_back(TriggerRef{"dist", false});
    dist.AddFunction(assoc);
  }
  BlackoutController controller("replica0");
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.replica(i).libc().SetService(DistributedController::kServiceName, &controller);
    runtimes.push_back(std::make_unique<Runtime>(dist));
    cluster.replica(i).libc().set_interposer(runtimes.back().get());
  }
  cluster.RunWorkload(10, 8000);
  EXPECT_GE(cluster.client().completed(), 10);
  EXPECT_GT(cluster.replica(1).view(), 0);  // a view change happened
}

// Truncated, garbled and non-numeric datagrams from authenticated ports are
// dropped by the receiver: the protocol keeps serving requests.
TEST_F(PbftTest, MalformedDatagramsAreDroppedWithoutDisturbingTheProtocol) {
  VirtualNet net(1);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  // Each process's socket is the first descriptor it opened.
  constexpr int kSocketFd = 0;
  const char* const kToReplicas[] = {
      "P|",        "P|0|1",       "P|0|x|d|1",   "P|0|1|d|",     "P|zero|1|d|1", "C|",
      "C|0|2",     "C|0|2|d|one", "C|0|-|d|1",   "PP|",          "PP|0",         "PP|0|x|d|p",
      "PP|v|1|d|p", "PP|0|1|d",   "REQ|0|p|",    "REQ|0|p|port", "VC|",          "VC|1|x",
      "NV|x|1:d:p;", "FETCH|x|1",  "STATE|x|d|0", "",             "|||||"};
  auto send_garbage = [&] {
    for (const char* msg : kToReplicas) {
      for (int i = 0; i < cluster.n(); ++i) {
        ASSERT_EQ(cluster.client().libc().SendTo(kSocketFd, msg, std::strlen(msg),
                                                 kPbftBasePort + i),
                  static_cast<long>(std::strlen(msg)))
            << msg;
      }
    }
    for (const char* msg : {"REPLY|0|1|", "REPLY|0|1|x", "REPLY|0|x|1|d", "REPLY|"}) {
      ASSERT_EQ(cluster.replica(1).libc().SendTo(kSocketFd, msg, std::strlen(msg),
                                                 kPbftClientPort),
                static_cast<long>(std::strlen(msg)))
          << msg;
    }
  };
  send_garbage();
  cluster.RunWorkload(/*requests=*/5, /*max_ticks=*/2000);
  send_garbage();
  cluster.RunWorkload(/*requests=*/20, /*max_ticks=*/2000);
  EXPECT_EQ(cluster.client().completed(), 20);
  EXPECT_FALSE(cluster.crashed()) << cluster.crash_reason();
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica(i).executed(), 20) << "replica " << i;
    EXPECT_FALSE(cluster.replica(i).halted()) << "replica " << i;
  }
}

// --- pinned bytes ---------------------------------------------------------
// pbft's wire encoding decides the message timing every fault lands on, so
// it is part of the journal-identity contract. These SHA-1s were recorded
// before the encoder and decoder moved off printf and per-field strings; a
// change that moves them changes the protocol's bytes, and must say why.

std::string FileSha1(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return Sha1::HexDigest(bytes.str());
}

std::string JournalSha1(CampaignSpec spec, const char* name) {
  spec.journal_path = ::testing::TempDir() + name;
  std::remove(spec.journal_path.c_str());
  std::string error;
  EXPECT_TRUE(CampaignDriver(spec).Run(&error).has_value()) << error;
  std::string digest = FileSha1(spec.journal_path);
  std::remove(spec.journal_path.c_str());
  return digest;
}

TEST(PbftPinnedBytes, RandomExploreJournals) {
  CampaignSpec spec{.system = "pbft",
                    .mode = CampaignMode::kExplore,
                    .strategy = ExploreStrategy::kRandom,
                    .budget = 64};
  spec.seed = 1001;
  EXPECT_EQ(JournalSha1(spec, "pbft_pin_1001.lfij"), "d07513038dfd28a871e428510d09eba21f5f7900");
  spec.seed = 1002;
  EXPECT_EQ(JournalSha1(spec, "pbft_pin_1002.lfij"), "02a94ef0f711e3d02ffb7fa0aa7aac07c40ef7d1");
}

TEST(PbftPinnedBytes, Table1Journal) {
  EXPECT_EQ(JournalSha1({.system = "pbft", .mode = CampaignMode::kTable1}, "pbft_pin_t1.lfij"),
            "1dc01ebdc7a8d361c69d8aeff7e6bd5c2d65b101");
}

TEST(PbftPinnedBytes, FaultFreeStateDigest) {
  VirtualFs fs;
  VirtualNet net(1);
  PbftCluster cluster(&fs, &net, PbftConfig{});
  ASSERT_TRUE(cluster.Start());
  EXPECT_EQ(cluster.RunWorkload(/*requests=*/20, /*max_ticks=*/2000), 101);
  EXPECT_EQ(cluster.replica(0).executed(), 20);
  EXPECT_EQ(cluster.replica(0).state_digest(), "194157e9e3d3c205");
}

}  // namespace
}  // namespace lfi
