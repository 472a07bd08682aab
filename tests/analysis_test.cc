#include <gtest/gtest.h>

#include <string>

#include "analysis/callsite_analyzer.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "image/assembler.h"

namespace lfi {
namespace {

Image Asm(const std::string& body) {
  AsmError error;
  auto image = Assemble(body, &error);
  EXPECT_TRUE(image.has_value()) << error.message << " at line " << error.line;
  return std::move(*image);
}

// Convenience: analyze the single call site of `function` in `image`.
CallSiteReport AnalyzeOne(const Image& image, const std::string& function,
                          const std::set<int64_t>& error_codes) {
  CallSiteAnalyzer analyzer;
  auto reports = analyzer.Analyze(image, function, error_codes);
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? CallSiteReport{} : reports[0];
}

TEST(Cfg, StraightLine) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r1, 0
  movi r2, 0
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  EXPECT_EQ(cfg.nodes().size(), 3u);  // movi, movi, ret
  const CfgNode* entry = cfg.node(kInstrSize);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->succs.size(), 1u);
}

TEST(Cfg, BranchBothWays) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  movi r1, 0
  ret
.err:
  movi r1, 1
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  const CfgNode* branch = cfg.node(2 * kInstrSize);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->succs.size(), 2u);
  EXPECT_EQ(cfg.nodes().size(), 6u);
}

TEST(Cfg, WindowLimitRespected) {
  std::string body = "module m\nfunc f\n  call read\n";
  for (int i = 0; i < 300; ++i) {
    body += "  nop\n";
  }
  body += "  ret\nend\n";
  Image image = Asm(body);
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize, 100);
  EXPECT_LE(cfg.nodes().size(), 100u);
}

TEST(Cfg, LoopDoesNotDiverge) {
  Image image = Asm(R"(
module m
func f
  call read
.loop:
  addi r1, 1
  cmpi r1, 10
  jl .loop
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  EXPECT_EQ(cfg.nodes().size(), 4u);
}

TEST(Dataflow, DirectEqualityCheck) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_FALSE(flow.has_ineq_check);
}

TEST(Dataflow, InequalityCheck) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 0
  jl .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.has_ineq_check);
  EXPECT_TRUE(flow.chk_ineq.count(0));
}

TEST(Dataflow, SignTestIsInequality) {
  Image image = Asm(R"(
module m
func f
  call read
  test r0, r0
  js .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.has_ineq_check);
}

TEST(Dataflow, TestWithJeIsZeroEquality) {
  Image image = Asm(R"(
module m
func f
  call malloc
  test r0, r0
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(0));
  EXPECT_FALSE(flow.has_ineq_check);
}

TEST(Dataflow, CopyThroughRegister) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
  movi r0, 7
  cmpi r6, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, SpillAndReloadThroughStack) {
  Image image = Asm(R"(
module m
func f
  call read
  store [sp+8], r0
  call write
  load r2, [sp+8]
  cmpi r2, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  // The copy survived the second call on the stack even though r0 was
  // clobbered.
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, CallClobbersRetReg) {
  Image image = Asm(R"(
module m
func f
  call read
  call write
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  // The compare checks write()'s return, not read()'s: no check recorded.
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, CalleeSavedSurvivesCall) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r7, r0
  call write
  cmpi r7, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, ArithmeticKillsValue) {
  Image image = Asm(R"(
module m
func f
  call read
  addi r0, 5
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, OverwriteKillsValue) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r0, 3
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, LoopReachesFixpoint) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
.loop:
  mov r7, r6
  addi r1, 1
  cmpi r1, 4
  jl .loop
  cmpi r7, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_GT(flow.iterations, 0);
}

// A chain of check diamonds, as AppBinaryBuilder emits for consecutive
// sites checked with kCheckIneq or kCheckZeroEq: each check's error arm
// falls through into its join, and the join leads to the next check. A
// worklist that queued a node once per predecessor doubled its copies at
// every join (2^20 pops for 20 diamonds). Each node now waits in the
// worklist at most once, so the fixpoint costs a small multiple of the node
// count.
TEST(Dataflow, CheckDiamondChainReachesFixpointInLinearIterations) {
  constexpr int kDiamonds = 24;
  std::string text = "module m\nfunc f\n  call read\n";
  for (int i = 0; i < kDiamonds; ++i) {
    std::string n = std::to_string(i);
    text += "  cmpi r0, -" + std::to_string(i + 1) + "\n  je .err" + n + "\n  jmp .join" + n +
            "\n.err" + n + ":\n  movi r1, 1\n.join" + n + ":\n  nop\n";
  }
  text += "  ret\nend\n";
  Image image = Asm(text);
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize, 1000);
  ASSERT_EQ(cfg.nodes().size(), static_cast<size_t>(kDiamonds * 5 + 1));
  DataflowResult flow = AnalyzeReturnValueFlow(cfg);
  for (int i = 1; i <= kDiamonds; ++i) {
    EXPECT_TRUE(flow.chk_eq.count(-i)) << "code -" << i;
  }
  EXPECT_LE(flow.iterations, static_cast<int>(4 * cfg.nodes().size()));
}

TEST(Dataflow, MultipleChecksOnDifferentPaths) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .a
  cmpi r0, 0
  je .b
  ret
.a:
  ret
.b:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_TRUE(flow.chk_eq.count(0));
}

// --- Algorithm 1 classification ------------------------------------------------

TEST(CallSiteAnalyzer, FindsAllSites) {
  Image image = Asm(R"(
module m
func f
  call read
  call write
  call read
  ret
end
)");
  auto sites = CallSiteAnalyzer::FindCallSites(image, "read");
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].offset, 0u);
  EXPECT_EQ(sites[1].offset, 2 * kInstrSize);
  EXPECT_EQ(sites[0].enclosing, "f");
  EXPECT_EQ(sites[0].module, "m");
}

TEST(CallSiteAnalyzer, NoSitesForUnimportedFunction) {
  Image image = Asm("module m\nfunc f\n  ret\nend\n");
  EXPECT_TRUE(CallSiteAnalyzer::FindCallSites(image, "read").empty());
}

TEST(CallSiteAnalyzer, FullyCheckedByEquality) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
  EXPECT_TRUE(report.missing_codes.empty());
}

TEST(CallSiteAnalyzer, FullyCheckedByInequality) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 0
  jl .err
  ret
.err:
  ret
end
)");
  // Inequality covers the whole error range (Algorithm 1 line 6).
  auto report = AnalyzeOne(image, "read", {-1, 0});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
}

TEST(CallSiteAnalyzer, PartiallyChecked) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1, 0});
  EXPECT_EQ(report.check_class, CheckClass::kPartial);
  EXPECT_EQ(report.missing_codes, std::set<int64_t>{0});
}

TEST(CallSiteAnalyzer, CompletelyUnchecked) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r1, 0
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kNone);
  EXPECT_EQ(report.missing_codes, std::set<int64_t>{-1});
}

TEST(CallSiteAnalyzer, CheckOutsideErrorSetIsStillUnchecked) {
  // Algorithm 1 lines 10-11: checking codes outside E does not count.
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 17
  je .x
  ret
.x:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kNone);
}

TEST(CallSiteAnalyzer, StatsPopulated) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .e
  ret
.e:
  ret
end
)");
  CallSiteAnalyzer analyzer;
  AnalyzerStats stats;
  analyzer.Analyze(image, "read", {-1}, &stats);
  EXPECT_EQ(stats.call_sites, 1u);
  EXPECT_GT(stats.instructions_visited, 0u);
  EXPECT_GT(stats.dataflow_iterations, 0);
}

TEST(CallSiteAnalyzer, IndirectCallsIgnored) {
  // An indirect call between the site and the check is treated as opaque
  // (clobbers caller-saved registers) but does not break the CFG.
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
  callr r3
  cmpi r6, -1
  je .e
  ret
.e:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
}

}  // namespace
}  // namespace lfi
