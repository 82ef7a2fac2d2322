// The benchmark's three save patterns.  A workload owns a model of every
// file's expected content and the RNG; it builds each save in memory first
// (untimed) and then issues only file-system calls on the saving client's
// application FS (timed).  The same seed gives the same calls, byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "vfs/fs.h"

namespace wallbench {

/// One planned save.
struct Save {
  int writer = 0;                  ///< 0 = client A, 1 = client B
  std::uint64_t update_bytes = 0;  ///< bytes the user changed (TUE base)
  /// Files the save leaves behind; the oracle checks each on A, the server
  /// and B after the save converged.
  std::vector<std::string> paths;
  /// (old, new) content of each rewritten file, kept only when the traced
  /// run replays the rsyncx kernels on them.
  std::vector<std::pair<dcfs::Bytes, dcfs::Bytes>> pairs;
};

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : rng_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// How many clients issue set-up calls (A first, then B); the benchmark
  /// syncs to convergence after each.
  [[nodiscard]] virtual int setup_clients() const { return 1; }
  /// Client `client`'s set-up calls; false when one of them failed.
  virtual bool setup(int client, dcfs::FileSystem& app) = 0;
  /// Decides the next save and builds its content in memory.
  virtual Save plan(bool record_pairs) = 0;
  /// Issues the save's calls; false when one of them failed.
  virtual bool issue(const Save& save, dcfs::FileSystem& app) = 0;

  /// Expected content of every file under the sync root right now.
  [[nodiscard]] const std::map<std::string, dcfs::Bytes>& expected()
      const noexcept {
    return files_;
  }

 protected:
  dcfs::Rng rng_;
  std::map<std::string, dcfs::Bytes> files_;
};

/// "office_save", "db_commit" or "small_files"; null for other names.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

}  // namespace wallbench
