#include "layers.h"

namespace wallbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::app_fs: return "vfs.intercepted";
    case Layer::memfs: return "vfs.memfs";
    case Layer::writer_tick: return "core.writer_tick";
    case Layer::pump: return "server.pump";
    case Layer::reader_tick: return "peer.reader_tick";
    case Layer::kCount: break;
  }
  return "?";
}

LayerTotals LayerTotals::operator-(const LayerTotals& base) const noexcept {
  LayerTotals out;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    out.incl_ns[i] = incl_ns[i] - base.incl_ns[i];
    out.child_ns[i] = child_ns[i] - base.child_ns[i];
    out.calls[i] = calls[i] - base.calls[i];
  }
  return out;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& more) noexcept {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    incl_ns[i] += more.incl_ns[i];
    child_ns[i] += more.child_ns[i];
    calls[i] += more.calls[i];
  }
  return *this;
}

void LayerClock::set_tracer(dcfs::obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer == nullptr) return;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    names_[i] = tracer->intern(layer_name(static_cast<Layer>(i)));
  }
}

dcfs::Result<dcfs::FileHandle> TimedFs::create(std::string_view path) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.create(path);
}

dcfs::Result<dcfs::FileHandle> TimedFs::open(std::string_view path) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.open(path);
}

dcfs::Status TimedFs::close(dcfs::FileHandle handle) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.close(handle);
}

dcfs::Result<dcfs::Bytes> TimedFs::read(dcfs::FileHandle handle,
                                        std::uint64_t offset,
                                        std::uint64_t size) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.read(handle, offset, size);
}

dcfs::Status TimedFs::write(dcfs::FileHandle handle, std::uint64_t offset,
                            dcfs::ByteSpan data) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.write(handle, offset, data);
}

dcfs::Status TimedFs::truncate(std::string_view path, std::uint64_t size) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.truncate(path, size);
}

dcfs::Status TimedFs::rename(std::string_view from, std::string_view to) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.rename(from, to);
}

dcfs::Status TimedFs::link(std::string_view from, std::string_view to) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.link(from, to);
}

dcfs::Status TimedFs::unlink(std::string_view path) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.unlink(path);
}

dcfs::Status TimedFs::mkdir(std::string_view path) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.mkdir(path);
}

dcfs::Status TimedFs::rmdir(std::string_view path) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.rmdir(path);
}

dcfs::Result<dcfs::FileStat> TimedFs::stat(std::string_view path) const {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.stat(path);
}

dcfs::Result<std::vector<std::string>> TimedFs::list_dir(
    std::string_view path) const {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.list_dir(path);
}

dcfs::Status TimedFs::fsync(dcfs::FileHandle handle) {
  LayerClock::Scope scope(clock_, layer_);
  return inner_.fsync(handle);
}

}  // namespace wallbench
