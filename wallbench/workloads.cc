#include "workloads.h"

#include <algorithm>
#include <array>
#include <string>

namespace wallbench {
namespace {

using dcfs::Bytes;
using dcfs::ByteSpan;
using dcfs::FileSystem;
using dcfs::Rng;

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;

/// Word-like text, so small files look like the notes and sources they
/// stand for.
Bytes random_text(Rng& rng, std::uint64_t n) {
  static constexpr std::array<std::string_view, 32> kWords = {
      "sync",    "delta",  "file",   "cloud", "client", "server",  "block",
      "rename",  "write",  "commit", "page",  "journal", "note",   "draft",
      "the",     "of",     "and",    "to",    "in",     "a",       "is",
      "version", "update", "change", "save",  "open",   "close",   "data",
      "local",   "remote", "queue",  "table"};
  Bytes out;
  out.reserve(n + 16);
  while (out.size() < n) {
    const std::string_view word = kWords[rng.next_below(kWords.size())];
    out.insert(out.end(), word.begin(), word.end());
    out.push_back(rng.next_below(12) == 0 ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

/// Writes `data` from offset 0 in `chunk`-sized calls, as an application's
/// buffered writer does.
bool write_chunked(FileSystem& fs, dcfs::FileHandle handle, ByteSpan data,
                   std::uint64_t chunk) {
  for (std::uint64_t off = 0; off < data.size(); off += chunk) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk, data.size() - off);
    if (!fs.write(handle, off, data.subspan(off, n)).is_ok()) return false;
  }
  return true;
}

bool create_file(FileSystem& fs, const std::string& path, ByteSpan data,
                 std::uint64_t chunk) {
  dcfs::Result<dcfs::FileHandle> handle = fs.create(path);
  if (!handle) return false;
  const bool wrote = write_chunked(fs, *handle, data, chunk);
  return fs.close(*handle).is_ok() && wrote;
}

template <typename It>
It at(It begin, std::uint64_t offset) {
  return begin + static_cast<std::ptrdiff_t>(offset);
}

// ---------------------------------------------------------------------------
// office_save: Word's transactional save (Fig. 3) of a few multi-MB binary
// documents.  Each save inserts a block at a uniform position, which shifts
// the document's tail, and patches a few small ranges in place.  The
// document then drops as many bytes at its end as were inserted, so its
// size stays the same over a run while everything past the insertion still
// shifts.
// ---------------------------------------------------------------------------

class OfficeSave final : public Workload {
 public:
  static constexpr int kDocs = 4;
  static constexpr std::uint64_t kDocBytes = 3 * MiB;
  static constexpr std::uint64_t kWriteChunk = 256 * KiB;

  explicit OfficeSave(std::uint64_t seed) : Workload(seed) {
    for (int k = 0; k < kDocs; ++k) files_[doc(k)] = rng_.bytes(kDocBytes);
  }

  bool setup(int /*client*/, FileSystem& app) override {
    bool ok = app.mkdir("/sync").is_ok() && app.mkdir(kDir).is_ok();
    for (int k = 0; k < kDocs; ++k) {
      ok = create_file(app, doc(k), files_[doc(k)], kWriteChunk) && ok;
    }
    return ok;
  }

  Save plan(bool record_pairs) override {
    Save save;
    const int k = static_cast<int>(rng_.next_below(kDocs));
    save.paths = {doc(k)};
    Bytes& content = files_[doc(k)];
    Bytes old = record_pairs ? content : Bytes{};

    const std::uint64_t grow = 16 * KiB + rng_.next_below(32 * KiB);
    // The insertion lies before the trimmed end, so all of it survives.
    const std::uint64_t insert_at = rng_.next_below(kDocBytes - grow + 1);
    const Bytes inserted = rng_.bytes(grow);
    content.insert(at(content.begin(), insert_at), inserted.begin(),
                   inserted.end());
    content.resize(kDocBytes);
    save.update_bytes += grow;

    for (int i = 0; i < 4; ++i) {
      const std::uint64_t len = 1 * KiB + rng_.next_below(3 * KiB);
      const Bytes patch = rng_.bytes(len);
      std::copy(patch.begin(), patch.end(),
                at(content.begin(), rng_.next_below(content.size() - len)));
      save.update_bytes += len;
    }
    if (record_pairs) save.pairs.emplace_back(std::move(old), content);
    return save;
  }

  bool issue(const Save& save, FileSystem& app) override {
    const std::string& path = save.paths.front();
    const std::string name = path.substr(path.rfind('/') + 1);
    const std::string backup = std::string(kDir) + "/~wrl." + name;
    const std::string temp = std::string(kDir) + "/~wrd." + name;
    bool ok = false;
    // The editor re-reads the document when the session starts.
    if (dcfs::Result<dcfs::FileHandle> handle = app.open(path)) {
      const dcfs::Result<dcfs::FileStat> st = app.stat(path);
      ok = st && app.read(*handle, 0, st->size).is_ok();
      ok = app.close(*handle).is_ok() && ok;
    }
    // Fig. 3, Microsoft Word: rename f t0; create+write t1; rename t1 f;
    // delete t0.
    ok = app.rename(path, backup).is_ok() && ok;
    ok = create_file(app, temp, files_[path], kWriteChunk) && ok;
    ok = app.rename(temp, path).is_ok() && ok;
    return app.unlink(backup).is_ok() && ok;
  }

 private:
  static constexpr const char* kDir = "/sync/docs";
  static std::string doc(int k) {
    return std::string(kDir) + "/report" + std::to_string(k) + ".doc";
  }
};

// ---------------------------------------------------------------------------
// db_commit: SQLite rollback-journal commits (the WeChat pattern, Fig. 3):
// journal the old pages, patch the header, rewrite two pages in place,
// append one page, truncate the journal.  Every write stays far under
// inplace_delta_threshold, so it ships as NFS-like write RPCs.  Every
// kVacuumEvery-th commit also truncates the database back to its initial
// size (auto-vacuum after old messages are deleted), so the per-commit cost
// does not drift with the length of a run.
// ---------------------------------------------------------------------------

class DbCommit final : public Workload {
 public:
  static constexpr std::uint64_t kPage = 4096;
  static constexpr std::uint64_t kDbBytes = 4 * MiB;
  static constexpr std::uint64_t kJournalHeader = 512;
  static constexpr int kDirtyPages = 2;
  static constexpr std::uint64_t kVacuumEvery = 64;

  explicit DbCommit(std::uint64_t seed) : Workload(seed) {
    files_[kDb] = rng_.bytes(kDbBytes);
    files_[kJournal] = {};
  }

  bool setup(int /*client*/, FileSystem& app) override {
    bool ok = app.mkdir("/sync").is_ok() && app.mkdir(kDir).is_ok();
    ok = create_file(app, kDb, files_[kDb], 1 * MiB) && ok;
    return create_file(app, kJournal, {}, 1) && ok;
  }

  Save plan(bool /*record_pairs*/) override {
    Save save;
    save.paths = {kDb, kJournal};
    Bytes& db = files_[kDb];
    const std::uint64_t pages = db.size() / kPage;

    pending_.pages.clear();
    for (int i = 0; i < kDirtyPages; ++i) {
      pending_.pages.push_back(1 + rng_.next_below(pages - 1));
    }
    // The journal holds the header page and the dirty pages as they were.
    pending_.journal = rng_.bytes(kJournalHeader);
    dcfs::append(pending_.journal, ByteSpan(db).subspan(0, kPage));
    for (const std::uint64_t page : pending_.pages) {
      dcfs::append(pending_.journal, ByteSpan(db).subspan(page * kPage, kPage));
    }

    pending_.header = rng_.bytes(24);
    std::copy(pending_.header.begin(), pending_.header.end(), db.begin() + 24);
    save.update_bytes += pending_.header.size();
    // A B-tree page is rewritten whole; a new row changes part of it.
    for (const std::uint64_t page : pending_.pages) {
      const Bytes row = rng_.bytes(200);
      std::copy(row.begin(), row.end(),
                at(db.begin(), page * kPage + rng_.next_below(kPage - 256)));
      save.update_bytes += kPage;
    }
    pending_.appended = rng_.bytes(kPage);
    pending_.appended_at = db.size();
    dcfs::append(db, pending_.appended);
    save.update_bytes += kPage;
    pending_.vacuum = ++commits_ % kVacuumEvery == 0;
    if (pending_.vacuum) db.resize(kDbBytes);
    return save;
  }

  bool issue(const Save& /*save*/, FileSystem& app) override {
    const Bytes& db_model = files_[kDb];
    dcfs::Result<dcfs::FileHandle> db = app.open(kDb);
    if (!db) return false;
    dcfs::Result<dcfs::FileHandle> journal = app.open(kJournal);
    if (!journal) {
      app.close(*db);
      return false;
    }
    bool ok = app.read(*db, 0, kPage).is_ok();
    for (const std::uint64_t page : pending_.pages) {
      ok = app.read(*db, page * kPage, kPage).is_ok() && ok;
    }
    ok = app.write(*journal, 0, pending_.journal).is_ok() && ok;
    ok = app.fsync(*journal).is_ok() && ok;
    ok = app.write(*db, 24, pending_.header).is_ok() && ok;
    for (const std::uint64_t page : pending_.pages) {
      const ByteSpan content = ByteSpan(db_model).subspan(page * kPage, kPage);
      ok = app.write(*db, page * kPage, content).is_ok() && ok;
    }
    ok = app.write(*db, pending_.appended_at, pending_.appended).is_ok() && ok;
    ok = app.fsync(*db).is_ok() && ok;
    ok = app.close(*db).is_ok() && ok;
    if (pending_.vacuum) ok = app.truncate(kDb, kDbBytes).is_ok() && ok;
    ok = app.close(*journal).is_ok() && ok;
    return app.truncate(kJournal, 0).is_ok() && ok;
  }

 private:
  static constexpr const char* kDir = "/sync/wechat";
  static constexpr const char* kDb = "/sync/wechat/msg.db";
  static constexpr const char* kJournal = "/sync/wechat/msg.db-journal";

  /// The planned commit's buffers, issued by the next issue().
  struct Pending {
    std::vector<std::uint64_t> pages;
    Bytes journal;
    Bytes header;
    Bytes appended;
    std::uint64_t appended_at = 0;
    bool vacuum = false;
  } pending_;
  std::uint64_t commits_ = 0;
};

// ---------------------------------------------------------------------------
// small_files: A and B take turns; each save rewrites a few small text
// files in the writer's own subtree the way editors that keep a backup do:
// rename f f~; create+write f; delete f~.  Half the rewrites edit the
// previous content, half replace it, so the relation-table delta runs on
// every file but pays only for edits.  Each subtree is larger than the
// client's 64-entry signature cache.
//
// The save does not write a temp and rename it over f: when that rename
// triggers a delta, the peer rebuilds f from its own copy of f after the
// forwarded rename has already replaced it with the empty temp, and ends up
// with an empty file (DeltaCfsClient::apply_forward resolves a file_delta
// base by path, not by base_version).  A workload on which saves fail
// cannot measure the system; that rename-over case waits for the fix.
// ---------------------------------------------------------------------------

class SmallFiles final : public Workload {
 public:
  static constexpr int kFilesPerClient = 300;
  static constexpr std::size_t kFilesPerSave = 8;
  static constexpr std::uint64_t kMinBytes = 1 * KiB;
  static constexpr std::uint64_t kMaxBytes = 16 * KiB;

  explicit SmallFiles(std::uint64_t seed) : Workload(seed) {
    for (int c = 0; c < 2; ++c) {
      for (int f = 0; f < kFilesPerClient; ++f) {
        files_[file(c, f)] =
            random_text(rng_, rng_.next_in(kMinBytes, kMaxBytes));
      }
    }
  }

  [[nodiscard]] int setup_clients() const override { return 2; }

  bool setup(int client, FileSystem& app) override {
    bool ok = client != 0 || app.mkdir("/sync").is_ok();
    ok = app.mkdir(dir(client)).is_ok() && ok;
    for (int f = 0; f < kFilesPerClient; ++f) {
      const std::string path = file(client, f);
      ok = create_file(app, path, files_[path], kMaxBytes) && ok;
    }
    return ok;
  }

  Save plan(bool record_pairs) override {
    Save save;
    save.writer = static_cast<int>(saves_++ % 2);
    std::vector<int> picked;
    while (picked.size() < kFilesPerSave) {
      const int f = static_cast<int>(rng_.next_below(kFilesPerClient));
      if (std::find(picked.begin(), picked.end(), f) == picked.end()) {
        picked.push_back(f);
      }
    }
    for (const int f : picked) {
      const std::string path = file(save.writer, f);
      Bytes& content = files_[path];
      Bytes old = record_pairs ? content : Bytes{};
      if (rng_.next_below(2) == 0) {
        // Edit: a few words removed, a line or two typed in their place.
        const std::uint64_t cut = rng_.next_below(64);
        const std::uint64_t where = rng_.next_below(content.size() - cut);
        const Bytes typed = random_text(rng_, rng_.next_in(16, 256));
        content.erase(at(content.begin(), where),
                      at(content.begin(), where + cut));
        content.insert(at(content.begin(), where), typed.begin(), typed.end());
        if (content.size() > kMaxBytes) content.resize(kMaxBytes);
        save.update_bytes += typed.size();
      } else {
        content = random_text(rng_, rng_.next_in(kMinBytes, kMaxBytes));
        save.update_bytes += content.size();
      }
      if (record_pairs) save.pairs.emplace_back(std::move(old), content);
      save.paths.push_back(path);
    }
    return save;
  }

  bool issue(const Save& save, FileSystem& app) override {
    bool ok = true;
    for (const std::string& path : save.paths) {
      const std::string backup = path + "~";
      ok = app.rename(path, backup).is_ok() && ok;
      ok = create_file(app, path, files_[path], kMaxBytes) && ok;
      ok = app.unlink(backup).is_ok() && ok;
    }
    return ok;
  }

 private:
  static std::string dir(int client) {
    return client == 0 ? "/sync/a" : "/sync/b";
  }
  static std::string file(int client, int f) {
    return dir(client) + "/note" + std::to_string(f) + ".txt";
  }

  std::uint64_t saves_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "office_save") return std::make_unique<OfficeSave>(seed);
  if (name == "db_commit") return std::make_unique<DbCommit>(seed);
  if (name == "small_files") return std::make_unique<SmallFiles>(seed);
  return nullptr;
}

}  // namespace wallbench
