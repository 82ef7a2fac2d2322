#include "trace/workloads.h"

#include <algorithm>

namespace dcfs {
namespace {

/// Workload content: incompressible bytes or compressible text, per the
/// params' text_payload knob.
Bytes gen(Rng& rng, std::uint64_t n, bool text) {
  return text ? rng.text(n) : rng.bytes(n);
}

/// Writes `data` through the FS in `chunk`-sized application writes.
void write_chunked(FileSystem& fs, FileHandle handle, std::uint64_t offset,
                   ByteSpan data, std::uint64_t chunk) {
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk, data.size() - pos);
    fs.write(handle, offset + pos, data.subspan(pos, n));
    pos += n;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// AppendWorkload
// ---------------------------------------------------------------------------

AppendWorkload::AppendWorkload(AppendParams params)
    : params_(std::move(params)), rng_(params_.seed) {}

bool AppendWorkload::step(FileSystem& fs) {
  if (!opened_) {
    Result<FileHandle> handle = fs.create(params_.path);
    if (!handle) handle = fs.open(params_.path);
    if (!handle) return false;
    handle_ = *handle;
    opened_ = true;
  }

  const Bytes data = params_.text_payload ? rng_.text(params_.append_bytes)
                                          : rng_.bytes(params_.append_bytes);
  fs.write(handle_, size_, data);
  size_ += data.size();
  update_bytes_ += data.size();

  if (++done_ >= params_.appends) {
    fs.close(handle_);
    return false;
  }
  next_time_ += params_.interval;
  return true;
}

// ---------------------------------------------------------------------------
// RandomWriteWorkload
// ---------------------------------------------------------------------------

RandomWriteWorkload::RandomWriteWorkload(RandomWriteParams params)
    : params_(std::move(params)), rng_(params_.seed) {}

void RandomWriteWorkload::setup(FileSystem& fs) {
  Result<FileHandle> handle = fs.create(params_.path);
  if (!handle) return;
  Rng content_rng(params_.seed ^ 0xABCD);
  constexpr std::uint64_t kChunk = 1ull << 20;
  std::uint64_t offset = 0;
  while (offset < params_.file_bytes) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk, params_.file_bytes - offset);
    fs.write(*handle, offset, gen(content_rng, n, params_.text_payload));
    offset += n;
  }
  fs.close(*handle);
}

bool RandomWriteWorkload::step(FileSystem& fs) {
  Result<FileHandle> handle = fs.open(params_.path);
  if (!handle) return false;

  const std::uint64_t max_offset = params_.file_bytes - params_.write_bytes;
  const std::uint64_t offset = rng_.next_below(max_offset);
  const Bytes data = gen(rng_, params_.write_bytes, params_.text_payload);
  fs.write(*handle, offset, data);
  fs.close(*handle);
  update_bytes_ += data.size();

  if (++done_ >= params_.writes) return false;
  next_time_ += params_.interval;
  return true;
}

// ---------------------------------------------------------------------------
// WordWorkload
// ---------------------------------------------------------------------------

WordWorkload::WordWorkload(WordParams params)
    : params_(std::move(params)), rng_(params_.seed) {}

void WordWorkload::setup(FileSystem& fs) {
  // .doc/.docx payloads are containers: model as incompressible bytes by
  // default so compression-based baselines do not get an unrealistic
  // advantage (text_payload opts into compressible content for the
  // compression/wire studies).
  content_ = gen(rng_, params_.initial_bytes, params_.text_payload);
  Result<FileHandle> handle = fs.create(params_.doc);
  if (!handle) return;
  write_chunked(fs, *handle, 0, content_, params_.write_chunk);
  fs.close(*handle);
}

void WordWorkload::edit_content() {
  // Growth per save, inserted at a random position: everything after the
  // insertion point shifts, which is what breaks 4 MB-aligned dedup.
  // Edit positions are biased towards the latter part of the document
  // (real editing is append-heavy), so on average ~1/4 of the file shifts
  // per save.
  const std::uint64_t grow =
      params_.saves > 0
          ? (params_.final_bytes - params_.initial_bytes) / params_.saves
          : 0;
  const std::uint64_t insert_at =
      content_.size() / 2 + rng_.next_below(content_.size() / 2 + 1);
  const Bytes inserted = gen(rng_, grow, params_.text_payload);
  content_.insert(content_.begin() + static_cast<std::ptrdiff_t>(insert_at),
                  inserted.begin(), inserted.end());
  update_bytes_ += grow;

  // Plus a handful of small in-place edits.
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t len = params_.edit_bytes / 4;
    if (content_.size() <= len) break;
    const std::uint64_t at = rng_.next_below(content_.size() - len);
    const Bytes patch = gen(rng_, len, params_.text_payload);
    std::copy(patch.begin(), patch.end(),
              content_.begin() + static_cast<std::ptrdiff_t>(at));
    update_bytes_ += len;
  }
}

bool WordWorkload::step(FileSystem& fs) {
  const std::string backup = params_.doc + ".wrl" + std::to_string(done_);
  const std::string temp = params_.doc + ".dft";

  // The editor re-reads the document at the start of a session (this is
  // what makes NFS re-fetch the renamed file).
  if (Result<FileHandle> handle = fs.open(params_.doc)) {
    Result<FileStat> st = fs.stat(params_.doc);
    if (st) (void)fs.read(*handle, 0, st->size);  // the bytes are unused
    fs.close(*handle);
  }

  edit_content();

  // Fig. 3, Microsoft Word: 1 rename f t0; 2-3 create-write t1;
  // 4 rename t1 f; 5 delete t0.
  fs.rename(params_.doc, backup);
  if (Result<FileHandle> handle = fs.create(temp)) {
    write_chunked(fs, *handle, 0, content_, params_.write_chunk);
    fs.close(*handle);
  }
  fs.rename(temp, params_.doc);
  fs.unlink(backup);

  if (++done_ >= params_.saves) return false;
  next_time_ += params_.interval;
  return true;
}

// ---------------------------------------------------------------------------
// WeChatWorkload
// ---------------------------------------------------------------------------

WeChatWorkload::WeChatWorkload(WeChatParams params)
    : params_(std::move(params)), rng_(params_.seed) {}

void WeChatWorkload::setup(FileSystem& fs) {
  pages_ = params_.initial_bytes / params_.page_size;
  grow_per_update_ =
      params_.updates > 0
          ? std::max<std::uint64_t>(
                1, (params_.final_bytes - params_.initial_bytes) /
                       (params_.updates *
                        static_cast<std::uint64_t>(params_.page_size)))
          : 1;

  Result<FileHandle> handle = fs.create(params_.db);
  if (!handle) return;
  Rng content_rng(params_.seed ^ 0x5EED);
  constexpr std::uint64_t kChunk = 1ull << 20;
  const std::uint64_t total = pages_ * params_.page_size;
  std::uint64_t offset = 0;
  while (offset < total) {
    const std::uint64_t n = std::min<std::uint64_t>(kChunk, total - offset);
    fs.write(*handle, offset, gen(content_rng, n, params_.text_payload));
    offset += n;
  }
  fs.close(*handle);
}

bool WeChatWorkload::step(FileSystem& fs) {
  // Fig. 3, WeChat/SQLite: 1-2 create-write journal, 3 write db,
  // 4 truncate journal 0.
  const std::uint32_t ps = params_.page_size;

  // Pick the in-place pages this transaction touches (page 0 is the DB
  // header, always updated; the rest are random B-tree pages).
  std::vector<std::uint64_t> dirty_pages{0};
  for (std::uint32_t i = 1; i < params_.inplace_pages; ++i) {
    dirty_pages.push_back(1 + rng_.next_below(std::max<std::uint64_t>(
                                  1, pages_ - 1)));
  }

  // 1-2: rollback journal receives copies of the about-to-change pages.
  Result<FileHandle> journal = fs.create(params_.journal);
  if (!journal) journal = fs.open(params_.journal);
  if (journal) {
    Bytes header = rng_.bytes(512);  // journal header
    fs.write(*journal, 0, header);
    std::uint64_t joff = 512;
    if (Result<FileHandle> db = fs.open(params_.db)) {
      for (const std::uint64_t page : dirty_pages) {
        Result<Bytes> old_page = fs.read(*db, page * ps, ps);
        if (old_page) {
          fs.write(*journal, joff, *old_page);
          joff += old_page->size();
        }
      }
      fs.close(*db);
    }
  }

  // 3: in-place page updates + appended pages on the DB itself.
  if (Result<FileHandle> db = fs.open(params_.db)) {
    // Header: a small non-aligned field update (change counter etc.).
    const Bytes header_patch = rng_.bytes(24);
    fs.write(*db, 24, header_patch);
    update_bytes_ += header_patch.size();

    // Dirty B-tree pages: SQLite rewrites whole pages; the page content is
    // mostly unchanged (a record inserted into the page).
    for (std::size_t i = 1; i < dirty_pages.size(); ++i) {
      const std::uint64_t page = dirty_pages[i];
      Result<Bytes> page_content = fs.read(*db, page * ps, ps);
      Bytes new_page =
          page_content ? std::move(*page_content) : Bytes(ps, 0);
      new_page.resize(ps, 0);
      const std::uint64_t at = rng_.next_below(ps - 256);
      const Bytes record = gen(rng_, 200, params_.text_payload);
      std::copy(record.begin(), record.end(),
                new_page.begin() + static_cast<std::ptrdiff_t>(at));
      fs.write(*db, page * ps, new_page);
      update_bytes_ += new_page.size();
    }

    // Appended pages: the new messages' leaf pages.
    for (std::uint64_t i = 0; i < grow_per_update_; ++i) {
      const Bytes fresh = gen(rng_, ps, params_.text_payload);
      fs.write(*db, pages_ * ps, fresh);
      ++pages_;
      update_bytes_ += ps;
    }
    fs.close(*db);
  }

  // 4: commit — the journal is truncated to zero.
  if (journal) fs.close(*journal);
  fs.truncate(params_.journal, 0);

  if (++done_ >= params_.updates) return false;
  next_time_ += params_.interval;
  return true;
}

// ---------------------------------------------------------------------------
// PhotoThumbWorkload
// ---------------------------------------------------------------------------

PhotoThumbWorkload::PhotoThumbWorkload(PhotoThumbParams params)
    : params_(std::move(params)), rng_(params_.seed) {}

void PhotoThumbWorkload::setup(FileSystem& fs) { fs.mkdir(params_.dir); }

bool PhotoThumbWorkload::step(FileSystem& fs) {
  const std::string photo =
      params_.dir + "/photo" + std::to_string(done_) + ".jpg";
  const std::string thumb =
      params_.dir + "/thumb" + std::to_string(done_) + ".jpg";

  // Causality: the photo exists before its thumbnail (§III-E).
  if (Result<FileHandle> handle = fs.create(photo)) {
    const Bytes data = rng_.bytes(params_.photo_bytes);
    fs.write(*handle, 0, data);
    fs.close(*handle);
    update_bytes_ += data.size();
  }
  if (Result<FileHandle> handle = fs.create(thumb)) {
    const Bytes data = rng_.bytes(params_.thumb_bytes);
    fs.write(*handle, 0, data);
    fs.close(*handle);
    update_bytes_ += data.size();
  }

  if (++done_ >= params_.pairs) return false;
  next_time_ += params_.interval;
  return true;
}

std::vector<std::string> PhotoThumbWorkload::expected_order() const {
  std::vector<std::string> order;
  for (std::uint32_t i = 0; i < done_; ++i) {
    order.push_back(params_.dir + "/photo" + std::to_string(i) + ".jpg");
    order.push_back(params_.dir + "/thumb" + std::to_string(i) + ".jpg");
  }
  return order;
}

}  // namespace dcfs
