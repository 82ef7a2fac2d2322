// syncctl: an interactive shell over a live DeltaCFS stack.
//
// Drives the full client/cloud pipeline from a command line — useful for
// poking at the relation table, the sync queue, versions and conflicts by
// hand.  Reads commands from stdin; EOF or `quit` exits.
//
//   $ ./syncctl <<'EOF'
//   write /sync/a.txt hello world
//   tick 5
//   cloud /sync/a.txt
//   history /sync/a.txt
//   stats
//   EOF
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "baselines/deltacfs_system.h"
#include "chk/lockdep.h"
#include "obs/critpath.h"
#include "obs/obs.h"

using namespace dcfs;

namespace {

void print_help() {
  std::printf(
      "commands:\n"
      "  write <path> <text...>     create/overwrite a file\n"
      "  append <path> <text...>    append to a file\n"
      "  read <path>                read the local file\n"
      "  cloud <path>               read the cloud's copy\n"
      "  rm <path>                  unlink\n"
      "  mv <from> <to>             rename\n"
      "  ln <from> <to>             hard link\n"
      "  mkdir <path>               make directory\n"
      "  ls <dir>                   list a local directory\n"
      "  history <path>             list cloud versions\n"
      "  tick <seconds>             advance virtual time (sync runs)\n"
      "  stats                      meters, counters and metric registry\n"
      "  trace [file]               span summary, or Chrome JSON to <file>\n"
      "  critpath                   per-sync stage breakdown (p50/p95/p99)\n"
      "  recon                      reconciliation session/round/byte stats\n"
      "  chk [file]                 lock-order graph as Graphviz DOT\n"
      "  help | quit\n");
}

std::string rest_of(std::istringstream& in) {
  std::string rest;
  std::getline(in, rest);
  const std::size_t start = rest.find_first_not_of(' ');
  return start == std::string::npos ? std::string{} : rest.substr(start);
}

}  // namespace

int main() {
  VirtualClock clock;
  obs::Obs obs;
  obs.tracer.enable(clock);
  ClientConfig config;
  config.delta_threads = 2;  // exercise dcfs::par so par.* shows in `stats`
  // Multi-round reconciliation for big renamed-in files; the threshold is
  // lowered so `recon` has something to show in hand-driven sessions.
  config.recon_mode = ReconMode::adaptive;
  config.recon_min_bytes = 64 * 1024;
  ServerConfig server_config;
  server_config.apply_shards = 2;  // exercise the sharded apply pipeline
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(), config,
                        CostProfile::pc(), &obs, server_config);
  system.fs().mkdir("/sync");
  std::printf("DeltaCFS syncctl — sync root is /sync.  `help` for commands.\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty()) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      print_help();
    } else if (cmd == "write" || cmd == "append") {
      std::string path;
      in >> path;
      const std::string text = rest_of(in) + "\n";
      if (cmd == "write") {
        const Status st = system.fs().write_file(path, to_bytes(text));
        std::printf("%s\n", st.is_ok() ? "ok" : st.to_string().c_str());
      } else {
        Result<FileHandle> handle = system.fs().open(path);
        if (!handle) handle = system.fs().create(path);
        if (!handle) {
          std::printf("%s\n", handle.status().to_string().c_str());
          continue;
        }
        const auto size = system.fs().stat(path)->size;
        system.fs().write(*handle, size, to_bytes(text));
        system.fs().close(*handle);
        std::printf("ok\n");
      }
    } else if (cmd == "read" || cmd == "cloud") {
      std::string path;
      in >> path;
      Result<Bytes> content = cmd == "read"
                                  ? system.fs().read_file(path)
                                  : system.server().fetch(path);
      if (!content) {
        std::printf("%s\n", content.status().to_string().c_str());
      } else {
        std::printf("%.*s", static_cast<int>(content->size()),
                    reinterpret_cast<const char*>(content->data()));
        if (content->empty() || content->back() != '\n') std::printf("\n");
      }
    } else if (cmd == "rm") {
      std::string path;
      in >> path;
      std::printf("%s\n", system.fs().unlink(path).to_string().c_str());
    } else if (cmd == "mv") {
      std::string from, to;
      in >> from >> to;
      std::printf("%s\n", system.fs().rename(from, to).to_string().c_str());
    } else if (cmd == "ln") {
      std::string from, to;
      in >> from >> to;
      std::printf("%s\n", system.fs().link(from, to).to_string().c_str());
    } else if (cmd == "mkdir") {
      std::string path;
      in >> path;
      std::printf("%s\n", system.fs().mkdir(path).to_string().c_str());
    } else if (cmd == "ls") {
      std::string path;
      in >> path;
      if (path.empty()) path = "/sync";
      Result<std::vector<std::string>> names = system.fs().list_dir(path);
      if (!names) {
        std::printf("%s\n", names.status().to_string().c_str());
      } else {
        for (const std::string& name : *names) std::printf("%s\n", name.c_str());
      }
    } else if (cmd == "history") {
      std::string path;
      in >> path;
      for (const auto& version : system.server().history(path)) {
        Result<Bytes> content = system.server().fetch_version(path, version);
        std::printf("%-10s %zu bytes\n", proto::to_string(version).c_str(),
                    content ? content->size() : 0);
      }
    } else if (cmd == "tick") {
      double seconds_to_run = 1.0;
      in >> seconds_to_run;
      const auto steps = static_cast<int>(seconds_to_run * 5);
      for (int i = 0; i < steps; ++i) {
        clock.advance(milliseconds(200));
        system.tick(clock.now());
      }
      std::printf("advanced %.1fs (virtual t=%.1fs)\n", seconds_to_run,
                  static_cast<double>(clock.now()) / 1e6);
    } else if (cmd == "stats") {
      std::printf("uploaded   : %llu bytes in %llu msgs\n",
                  static_cast<unsigned long long>(system.traffic().up_bytes()),
                  static_cast<unsigned long long>(
                      system.traffic().up_messages()));
      std::printf("downloaded : %llu bytes\n",
                  static_cast<unsigned long long>(
                      system.traffic().down_bytes()));
      std::printf("client CPU : %llu ticks; server CPU: %llu ticks\n",
                  static_cast<unsigned long long>(system.client_cpu_ticks()),
                  static_cast<unsigned long long>(system.server_cpu_ticks()));
      std::printf("deltas     : %llu; conflicts: %llu; queue: %zu nodes, "
                  "%llu bytes\n",
                  static_cast<unsigned long long>(
                      system.client().deltas_triggered()),
                  static_cast<unsigned long long>(
                      system.client().conflicts_acked()),
                  system.client().queue().size(),
                  static_cast<unsigned long long>(
                      system.client().queue().pending_bytes()));
      const CloudServer& server = system.server();
      std::printf("server     : %llu records applied, %llu txn groups, "
                  "%zu shard(s)\n",
                  static_cast<unsigned long long>(server.records_applied()),
                  static_cast<unsigned long long>(server.txn_groups_applied()),
                  server.config().apply_shards);
      std::printf("store      : %llu unique / %llu logical bytes "
                  "(dedup %.2fx)\n",
                  static_cast<unsigned long long>(server.store().unique_bytes()),
                  static_cast<unsigned long long>(
                      server.store().logical_bytes()),
                  server.store().dedup_ratio());
      std::printf("--- metric registry ---\n%s",
                  system.metrics_snapshot().to_string().c_str());
    } else if (cmd == "trace") {
      std::string path;
      in >> path;
      if (path.empty()) {
        std::printf("%s", obs.tracer.summary().c_str());
      } else {
        std::ofstream out(path);
        if (!out) {
          std::printf("cannot open %s\n", path.c_str());
        } else {
          out << obs.tracer.to_chrome_json();
          std::printf("wrote %zu events to %s\n", obs.tracer.events().size(),
                      path.c_str());
        }
      }
    } else if (cmd == "critpath") {
      // Where did each sync's wall time go?  The tracer's flow events pair
      // the client upload with the server apply and the ack round trip;
      // the stage ledger adds the CPU-side stages (signature/delta/...).
      std::string error;
      obs::ParsedTrace parsed;
      if (!obs::parse_chrome_trace(obs.tracer.to_chrome_json(), parsed,
                                   &error)) {
        std::printf("trace unparsable: %s\n", error.c_str());
      } else {
        std::printf("%s", obs::analyze_critical_path(parsed)
                              .to_string()
                              .c_str());
      }
      std::printf("--- stage ledger (CPU + queue, per record) ---\n%s",
                  obs.stages.to_string().c_str());
    } else if (cmd == "recon") {
      // Multi-round reconciliation: sessions negotiate which regions of a
      // large renamed-in file actually changed before uploading a delta.
      const DeltaCfsClient& client = system.client();
      std::printf("mode       : %s (threshold %llu bytes)\n",
                  config.recon_mode == ReconMode::off        ? "off"
                  : config.recon_mode == ReconMode::classic  ? "classic"
                  : config.recon_mode == ReconMode::recursive ? "recursive"
                                                              : "adaptive",
                  static_cast<unsigned long long>(config.recon_min_bytes));
      std::printf("sessions   : %llu started, %llu in flight, %llu fell "
                  "back to full upload\n",
                  static_cast<unsigned long long>(
                      client.recon_sessions_started()),
                  static_cast<unsigned long long>(client.recon_in_flight()),
                  static_cast<unsigned long long>(client.recon_fallbacks()));
      std::printf("rounds     : %llu sent (%llu B up, %llu B down)\n",
                  static_cast<unsigned long long>(client.recon_rounds_sent()),
                  static_cast<unsigned long long>(client.recon_up_bytes()),
                  static_cast<unsigned long long>(client.recon_down_bytes()));
      std::printf("saved      : %llu signature bytes vs the classic "
                  "whole-file exchange\n",
                  static_cast<unsigned long long>(
                      client.recon_sig_bytes_saved()));
      std::printf("server     : %llu shingle/signature queries answered\n",
                  static_cast<unsigned long long>(
                      system.server().recon_queries()));
    } else if (cmd == "chk") {
      // The lock-order graph observed so far: every chk::Mutex class this
      // process acquired, with the nesting edges lockdep recorded.  Empty
      // (two-line digraph) when built with -DDCFS_CHK=OFF.
      std::string path;
      in >> path;
      const std::string dot = chk::lockdep_dot();
      if (path.empty()) {
        std::printf("%s", dot.c_str());
        if (!chk::enabled()) {
          std::printf("(lockdep not compiled in: rebuild with -DDCFS_CHK=ON)\n");
        }
      } else {
        std::ofstream out(path);
        if (!out) {
          std::printf("cannot open %s\n", path.c_str());
        } else {
          out << dot;
          std::printf("wrote lock-order graph to %s (render: dot -Tsvg)\n",
                      path.c_str());
        }
      }
    } else {
      std::printf("unknown command '%s' — try `help`\n", cmd.c_str());
    }
  }
  return 0;
}
