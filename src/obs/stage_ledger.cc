#include "obs/stage_ledger.h"

#include <cstdio>

namespace dcfs::obs {

std::string_view to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::signature:
      return "signature";
    case Stage::delta:
      return "delta";
    case Stage::compress:
      return "compress";
    case Stage::transport:
      return "transport";
    case Stage::queue_wait:
      return "queue_wait";
    case Stage::apply:
      return "apply";
    case Stage::ack:
      return "ack";
    case Stage::recon:
      return "recon";
    case Stage::kCount:
      break;
  }
  return "?";
}

std::string StageLedger::to_string() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %8s %12s %10s %10s %10s\n", "stage",
                "count", "total_us", "p50_us", "p95_us", "p99_us");
  out += line;
  bool any = false;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const QuantileSketch& sketch = sketches_[i];
    if (sketch.count() == 0) continue;
    any = true;
    std::snprintf(line, sizeof(line), "%-12s %8llu %12llu %10llu %10llu %10llu\n",
                  std::string(dcfs::obs::to_string(static_cast<Stage>(i))).c_str(),
                  static_cast<unsigned long long>(sketch.count()),
                  static_cast<unsigned long long>(sketch.sum()),
                  static_cast<unsigned long long>(sketch.quantile(0.50)),
                  static_cast<unsigned long long>(sketch.quantile(0.95)),
                  static_cast<unsigned long long>(sketch.quantile(0.99)));
    out += line;
  }
  if (!any) out = "(stage ledger empty)\n";
  return out;
}

}  // namespace dcfs::obs
