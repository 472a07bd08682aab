// End-to-end cost of one libc call made from a target (§7.4, target side).
//
// bench_interpose_overhead isolates the interposer. This bench measures what
// a target application pays around the same boundary crossing, layer by
// layer, on the call shape every app uses:
//
//   ScopedFrame frame(&libc.stack(), kModule, "read_object");  // frame push
//   frame.set_offset(kSite);            // call site, resolved once
//   libc.Read(fd, buf, n);              // interposer lookup + triggers
//
//   mode         frame  call site                 interposer
//   bare         no     --                        none
//   site_frame   yes    function-local static     none
//   site_lookup  yes    SiteOffset(name) per call none  (the pre-static path)
//   disarmed     yes    function-local static     CallCountTrigger, disarmed
//   armed        yes    function-local static     CallCountTrigger, armed
//
// Both trigger modes evaluate the trigger on every timed call. The armed
// trigger fires once, on the first warmup call; the timed calls are armed
// evaluations that pass the call through, the state of nearly every call in
// a campaign. Layer costs are differences between modes.
//
// Report-only: the bench prints and writes numbers and sets no bar, so it
// exits 0 whenever it ran.
//
//   bench_target_call [iters] [reps] [--json [path]]
//     defaults: 1000000 calls, 5 reps (best-of), --json writes
//     BENCH_target_call.json

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/git/git.h"
#include "bench_args.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "vlib/call_stack.h"
#include "vlib/vfs.h"
#include "vlib/virtual_libc.h"
#include "vlib/vnet.h"

namespace {

constexpr const char* kSiteName = "git.read_object.read";

// One association on read whose CallCountTrigger fires on the first call
// only: every later call evaluates the trigger and passes through.
constexpr const char* kCallCountScenario = R"(
<scenario>
  <trigger id="first" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="first"/></function>
</scenario>)";

enum class Mode { kBare, kSiteFrame, kSiteLookup, kDisarmed, kArmed };

struct ModeInfo {
  Mode mode;
  const char* name;
};

constexpr ModeInfo kModes[] = {{Mode::kBare, "bare"},
                               {Mode::kSiteFrame, "site_frame"},
                               {Mode::kSiteLookup, "site_lookup"},
                               {Mode::kDisarmed, "disarmed"},
                               {Mode::kArmed, "armed"}};

// One target call the way the apps make it.
long TargetCall(lfi::VirtualLibc& libc, int fd, char* buf, Mode mode) {
  if (mode == Mode::kBare) {
    return libc.Read(fd, buf, 16);
  }
  lfi::ScopedFrame frame(&libc.stack(), lfi::MiniGit::kModule, "read_object");
  if (mode == Mode::kSiteLookup) {
    frame.set_offset(lfi::GitBinary().SiteOffset(std::string(kSiteName)));
  } else {
    static const uint32_t kSite = lfi::GitBinary().SiteOffset(kSiteName);
    frame.set_offset(kSite);
  }
  return libc.Read(fd, buf, 16);
}

// `calls` target calls; returns seconds.
double Drive(lfi::VirtualLibc& libc, int fd, size_t calls, Mode mode) {
  char buf[16];
  long sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    sink += TargetCall(libc, fd, buf, mode);
  }
  auto end = std::chrono::steady_clock::now();
  if (sink == -12345) {  // keeps the loop observable
    std::fprintf(stderr, "impossible sink\n");
  }
  return std::chrono::duration<double>(end - start).count();
}

std::string Fixed2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_target_call.json");
  size_t calls = 1000000;
  int reps = 5;
  if (!args.positional.empty()) {
    calls = static_cast<size_t>(std::strtoull(args.positional[0], nullptr, 10));
  }
  if (args.positional.size() > 1) {
    reps = std::atoi(args.positional[1]);
  }
  if (calls == 0) {
    calls = 1000000;
  }
  if (reps < 1) {
    reps = 1;
  }
  lfi::EnsureStockTriggersRegistered();
  if (lfi::GitBinary().SiteOffset(kSiteName) == 0xffffffffu) {
    std::fprintf(stderr, "unknown call site %s\n", kSiteName);
    return 1;
  }

  std::vector<double> ns_per_call;
  for (const ModeInfo& info : kModes) {
    lfi::VirtualFs fs;
    lfi::VirtualNet net;
    lfi::VirtualLibc libc(&fs, &net, "bench");
    fs.MkDir("/d");
    fs.WriteFile("/d/f", std::string(16, 'x'));
    int fd = libc.Open("/d/f", lfi::kORdOnly);
    std::optional<lfi::Scenario> scenario = lfi::Scenario::Parse(kCallCountScenario);
    if (fd < 0 || !scenario) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    std::unique_ptr<lfi::Runtime> runtime;
    if (info.mode == Mode::kDisarmed || info.mode == Mode::kArmed) {
      runtime = std::make_unique<lfi::Runtime>(*scenario);
      runtime->set_armed(info.mode == Mode::kArmed);
      libc.set_interposer(runtime.get());
    }
    Drive(libc, fd, calls / 10 + 1, info.mode);  // warmup
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      double seconds = Drive(libc, fd, calls, info.mode);
      if (r == 0 || seconds < best) {
        best = seconds;
      }
    }
    libc.set_interposer(nullptr);
    ns_per_call.push_back(best * 1e9 / static_cast<double>(calls));
  }

  auto ns = [&](Mode mode) { return ns_per_call[static_cast<size_t>(mode)]; };
  struct Layer {
    const char* name;
    double ns;
  };
  const Layer layers[] = {
      {"frame_push_and_static_site", ns(Mode::kSiteFrame) - ns(Mode::kBare)},
      {"per_call_site_lookup", ns(Mode::kSiteLookup) - ns(Mode::kSiteFrame)},
      {"interposer_disarmed", ns(Mode::kDisarmed) - ns(Mode::kSiteFrame)},
      {"interposer_armed", ns(Mode::kArmed) - ns(Mode::kSiteFrame)},
  };

  std::printf("one libc call from a target, %zu calls, best of %d rep(s)\n\n", calls, reps);
  std::printf("%-12s %10s\n", "mode", "ns/call");
  for (size_t i = 0; i < std::size(kModes); ++i) {
    std::printf("%-12s %10.2f\n", kModes[i].name, ns_per_call[i]);
  }
  std::printf("\n%-28s %10s\n", "layer", "ns/call");
  for (const Layer& layer : layers) {
    std::printf("%-28s %10.2f\n", layer.name, layer.ns);
  }

  if (args.enabled) {
    std::FILE* f = std::fopen(args.path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"target_call\",\n  \"calls\": %zu,\n  \"reps\": %d,\n",
                 calls, reps);
    std::fprintf(f, "  \"modes\": [\n");
    for (size_t i = 0; i < std::size(kModes); ++i) {
      std::fprintf(f, "    {\"mode\": \"%s\", \"ns_per_call\": %s}%s\n", kModes[i].name,
                   Fixed2(ns_per_call[i]).c_str(), i + 1 < std::size(kModes) ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"layers_ns_per_call\": {\n");
    for (size_t i = 0; i < std::size(layers); ++i) {
      std::fprintf(f, "    \"%s\": %s%s\n", layers[i].name, Fixed2(layers[i].ns).c_str(),
                   i + 1 < std::size(layers) ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", args.path.c_str());
  }
  return 0;
}
