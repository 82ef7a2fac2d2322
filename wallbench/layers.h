// Wall-clock accounting at the composition boundaries the benchmark owns.
//
// Every call the benchmark makes into the DeltaCFS stack runs inside a
// LayerClock::Scope: the application's file-system calls (through the
// TimedFs above InterceptingFs), the local-disk calls of either client
// (through the TimedFs between client/interceptor and MemFs), and the
// tick/pump calls that drive the sync.  Scopes nest, so each layer's self
// time is its inclusive time minus the time of the scopes opened inside it.
// Times are steady-clock nanoseconds; nothing inside src/ is touched.
//
// In a traced run every scope also opens an obs::Span on a tracer the
// benchmark holds (timestamped by its own SteadyClock, never handed to the
// program), so the Chrome trace shows the same intervals.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>

#include "obs/trace.h"
#include "vfs/fs.h"

namespace wallbench {

enum class Layer : std::uint8_t {
  app_fs,       ///< an intercepted call the application made (FUSE position)
  memfs,        ///< a local-disk call of either client
  writer_tick,  ///< DeltaCfsClient::tick on the saving client
  pump,         ///< CloudServer::pump
  reader_tick,  ///< DeltaCfsClient::tick on the other client
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer) noexcept;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Running totals per layer; a save's numbers are the difference of two
/// snapshots.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> incl_ns{};   ///< inclusive time
  std::array<std::int64_t, kLayerCount> child_ns{};  ///< nested scopes' time
  std::array<std::uint64_t, kLayerCount> calls{};

  [[nodiscard]] std::int64_t incl(Layer l) const noexcept {
    return incl_ns[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::int64_t self(Layer l) const noexcept {
    const auto i = static_cast<std::size_t>(l);
    return incl_ns[i] - child_ns[i];
  }
  [[nodiscard]] std::uint64_t count(Layer l) const noexcept {
    return calls[static_cast<std::size_t>(l)];
  }
  LayerTotals operator-(const LayerTotals& base) const noexcept;
  LayerTotals& operator+=(const LayerTotals& more) noexcept;
};

class LayerClock {
 public:
  /// Spans go to `tracer` from now on (null stops tracing).  Names are
  /// interned here, once, so scopes never touch the name table.
  void set_tracer(dcfs::obs::Tracer* tracer);

  [[nodiscard]] const LayerTotals& totals() const noexcept { return totals_; }

  class Scope {
   public:
    Scope(LayerClock& clock, Layer layer)
        : clock_(clock),
          layer_(layer),
          parent_(clock.open_),
          start_(now_ns()) {
      clock.open_ = this;
      if (clock.tracer_ != nullptr) {
        span_.emplace(clock.tracer_,
                      clock.names_[static_cast<std::size_t>(layer)]);
      }
    }
    ~Scope() {
      span_.reset();
      const std::int64_t elapsed = now_ns() - start_;
      const auto i = static_cast<std::size_t>(layer_);
      clock_.totals_.incl_ns[i] += elapsed;
      ++clock_.totals_.calls[i];
      if (parent_ != nullptr) {
        clock_.totals_.child_ns[static_cast<std::size_t>(parent_->layer_)] +=
            elapsed;
      }
      clock_.open_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock& clock_;
    Layer layer_;
    Scope* parent_;
    std::int64_t start_;
    std::optional<dcfs::obs::Span> span_;
  };

 private:
  LayerTotals totals_;
  Scope* open_ = nullptr;
  dcfs::obs::Tracer* tracer_ = nullptr;
  std::array<dcfs::obs::NameId, kLayerCount> names_{};
};

/// FileSystem decorator timing every call as one `layer` scope.
class TimedFs final : public dcfs::FileSystem {
 public:
  TimedFs(dcfs::FileSystem& inner, LayerClock& clock, Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}

  dcfs::Result<dcfs::FileHandle> create(std::string_view path) override;
  dcfs::Result<dcfs::FileHandle> open(std::string_view path) override;
  dcfs::Status close(dcfs::FileHandle handle) override;
  dcfs::Result<dcfs::Bytes> read(dcfs::FileHandle handle, std::uint64_t offset,
                                 std::uint64_t size) override;
  dcfs::Status write(dcfs::FileHandle handle, std::uint64_t offset,
                     dcfs::ByteSpan data) override;
  dcfs::Status truncate(std::string_view path, std::uint64_t size) override;
  dcfs::Status rename(std::string_view from, std::string_view to) override;
  dcfs::Status link(std::string_view from, std::string_view to) override;
  dcfs::Status unlink(std::string_view path) override;
  dcfs::Status mkdir(std::string_view path) override;
  dcfs::Status rmdir(std::string_view path) override;
  dcfs::Result<dcfs::FileStat> stat(std::string_view path) const override;
  dcfs::Result<std::vector<std::string>> list_dir(
      std::string_view path) const override;
  dcfs::Status fsync(dcfs::FileHandle handle) override;

 private:
  dcfs::FileSystem& inner_;
  LayerClock& clock_;
  Layer layer_;
};

}  // namespace wallbench
