// Figure 9: network traffic of the experiments on mobile — Dropsync vs
// DeltaCFS, upload (a) and download (b).
//
// Paper shape: Dropsync uploads hundreds of MB on append/random (it
// re-uploads the whole file on every sync action, throttled only by the
// slow uplink batching updates); DeltaCFS uploads the same few MB it
// uploads on PC, and downloads almost nothing.
#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace dcfs;
  using namespace dcfs::bench;

  const bool paper_scale = paper_scale_requested(argc, argv);
  PaperJson json(argc, argv, "fig9");
  std::printf("=== Figure 9: network traffic on mobile (MB) ===\n");
  print_scale_banner(paper_scale);

  const auto traces = canonical_traces(paper_scale);
  const std::vector<Solution> solutions = {Solution::dropsync,
                                           Solution::deltacfs_mobile};

  std::printf("\n(a) upload traffic\n");
  std::vector<std::vector<RunResult>> all;
  for (const Solution solution : solutions) {
    all.emplace_back();
    for (const TraceSet& trace : traces) {
      all.back().push_back(run_one(solution, trace));
      json.add_traffic("mobile", all.back().back());
    }
  }

  std::printf("%-14s", "Solution");
  for (const TraceSet& trace : traces) std::printf(" %16s", trace.name.c_str());
  std::printf("\n");
  for (const auto& row : all) {
    std::printf("%-14s", row.front().solution.c_str());
    for (const RunResult& result : row) {
      std::printf(" %16s", fmt_mb(result.up_bytes).c_str());
    }
    std::printf("\n");
  }

  std::printf("\n(b) download traffic\n%-14s", "Solution");
  for (const TraceSet& trace : traces) std::printf(" %16s", trace.name.c_str());
  std::printf("\n");
  for (const auto& row : all) {
    std::printf("%-14s", row.front().solution.c_str());
    for (const RunResult& result : row) {
      std::printf(" %16s", fmt_mb(result.down_bytes).c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nExpected shape (paper): Dropsync re-uploads whole files (1-2 orders\n"
      "of magnitude more upload than DeltaCFS); DeltaCFS mobile matches its\n"
      "PC traffic and has near-zero download.\n");
  return json.write() ? 0 : 1;
}
