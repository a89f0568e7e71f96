// perfbench_node — wbamd's --bench role with the benchmark's span tracing
// around it, for the traced TCP runs:
//
//   perfbench_node --spans=FILE --windows=FILE <wbamd --bench flags>
//
// Replica pids host a ctrl::NodeShim, driver pids a ctrl::BenchDriver,
// exactly as wbamd --bench does, but each wrapped in a TimingProcess (see
// tracing.hpp). --metrics-dump and SIGUSR1 behave as in wbamd (one
// "snapshot" line per signal); in addition every snapshot is kept, and at
// exit the node writes
//   --spans    every span it recorded (tracing.hpp's binary format), and
//   --windows  one JSON line per pair of consecutive snapshots: their
//              CLOCK_MONOTONIC times, the counter deltas and the non-empty
//              buckets of each histogram delta, so stage percentiles can be
//              merged across processes exactly for any one window.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/bench_plane.hpp"
#include "harness/bootstrap.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "stats/histogram.hpp"
#include "tracing.hpp"
#include "wal/log.hpp"

using namespace wbam;

namespace {

volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

struct TimedSnapshot {
    std::int64_t at_ns;
    obs::MetricsSnapshot snap;
};

std::string window_line(const TimedSnapshot& from, const TimedSnapshot& to) {
    const obs::MetricsSnapshot d = to.snap.delta_since(from.snap);
    std::string out = "{\"t_open_ns\": " + std::to_string(from.at_ns) +
                      ", \"t_close_ns\": " + std::to_string(to.at_ns) +
                      ", \"counters\": {";
    for (std::size_t i = 0; i < d.counters.size(); ++i)
        out += (i ? ", \"" : "\"") + d.counters[i].first +
               "\": " + std::to_string(d.counters[i].second);
    out += "}, \"histograms\": {";
    bool first = true;
    for (const auto& [name, h] : d.histograms) {
        out += (first ? "\"" : ", \"") + name + "\": [";
        first = false;
        const std::vector<std::uint64_t>& b = h.raw_buckets();
        bool first_bucket = true;
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (b[i] == 0) continue;
            out += (first_bucket ? "[" : ", [") +
                   std::to_string(stats::Histogram::bucket_upper_bound(i)) +
                   ", " + std::to_string(b[i]) + "]";
            first_bucket = false;
        }
        out += "]";
    }
    return out + "}}\n";
}

bool write_text(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

int write_sequence(const std::string& path, const std::vector<MsgId>& ids) {
    std::string text;
    text.reserve(ids.size() * 17);
    char line[24];
    for (const MsgId id : ids) {
        std::snprintf(line, sizeof line, "%016llx\n",
                      static_cast<unsigned long long>(id));
        text += line;
    }
    return write_text(path, text) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string spans_path;
    std::string windows_path;
    std::vector<const char*> node_args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--spans=", 8) == 0)
            spans_path = argv[i] + 8;
        else if (std::strncmp(argv[i], "--windows=", 10) == 0)
            windows_path = argv[i] + 10;
        else
            node_args.push_back(argv[i]);
    }
    std::string error;
    const auto options = harness::parse_node_args(
        static_cast<int>(node_args.size()), node_args.data(), &error);
    if (!options || !options->bench || spans_path.empty() ||
        windows_path.empty() || options->metrics_dump.empty()) {
        std::fprintf(stderr,
                     "perfbench_node: %s\nusage: perfbench_node --spans=FILE "
                     "--windows=FILE --bench --metrics-dump=FILE <wbamd "
                     "flags>\n",
                     options ? "missing a required flag" : error.c_str());
        return 2;
    }
    const harness::NodeOptions& o = *options;
    const auto boot = harness::resolve_bootstrap(o, &error);
    if (!boot) {
        std::fprintf(stderr, "perfbench_node: %s\n", error.c_str());
        return 2;
    }
    const Topology& topo = boot->topo;
    const ProcessId coordinator = topo.client(topo.num_clients() - 1);
    if (topo.num_clients() < 2 || o.pid == coordinator) {
        std::fprintf(stderr, "perfbench_node: pid %d is not a replica or "
                             "driver seat\n", o.pid);
        return 2;
    }

    std::optional<wal::Log> wal_log;
    if (!o.wal_dir.empty() && topo.is_replica(o.pid)) {
        const std::string path =
            o.wal_dir + "/p" + std::to_string(o.pid) + ".wal";
        wal_log.emplace(path, *wal::parse_sync_mode(o.wal_sync));
        if (!wal_log->ok()) {
            std::fprintf(stderr, "perfbench_node: cannot open WAL %s\n",
                         path.c_str());
            return 2;
        }
        // The same read-only registry views wbamd installs.
        obs::metrics().register_adapter(
            "wal/commits", [&wal_log] { return wal_log->stats().commits; });
        obs::metrics().register_adapter(
            "wal/fsyncs", [&wal_log] { return wal_log->stats().fsyncs; });
        obs::metrics().register_adapter("wal/bytes_written", [&wal_log] {
            return wal_log->stats().bytes_written;
        });
    }

    net::NetConfig cfg;
    cfg.epoch = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(o.epoch_ns)));
    cfg.shards = o.net_shards;
    net::NetWorld world(topo, static_cast<std::uint64_t>(o.pid) + 1, cfg);

    std::atomic<bool> done{false};
    ctrl::NodeShim* shim = nullptr;
    perfbench::ProcessTrace trace(o.pid);
    std::unique_ptr<Process> role;
    if (topo.is_replica(o.pid)) {
        auto s = std::make_unique<ctrl::NodeShim>(
            topo, o.pid, coordinator, &done, wal_log ? &*wal_log : nullptr);
        shim = s.get();
        role = std::move(s);
    } else {
        role = std::make_unique<ctrl::BenchDriver>(topo, coordinator, &done);
    }
    world.add_process(
        o.pid,
        std::make_unique<perfbench::TimingProcess>(std::move(role), &trace),
        boot->map.of(o.pid).port);
    world.set_cluster(boot->map);
    world.start();

    std::FILE* dump = std::fopen(o.metrics_dump.c_str(), "w");
    if (dump == nullptr) {
        std::fprintf(stderr, "perfbench_node: cannot write %s\n",
                     o.metrics_dump.c_str());
        world.shutdown();
        return 2;
    }
    std::signal(SIGUSR1, on_sigusr1);
    std::vector<TimedSnapshot> snapshots;
    const int slices = o.run_ms / 10;
    for (int s = 0; s < slices && !done.load(); ++s) {
        world.run_for(milliseconds(10));
        if (g_dump_requested == 0) continue;
        g_dump_requested = 0;
        TimedSnapshot ts{perfbench::monotonic_ns(), obs::metrics().snapshot()};
        std::fprintf(dump, "{\"kind\": \"snapshot\", \"pid\": %d, "
                           "\"metrics\": %s}\n",
                     o.pid, ts.snap.to_json().c_str());
        std::fflush(dump);
        snapshots.push_back(std::move(ts));
    }
    world.shutdown();
    std::fclose(dump);

    std::string windows;
    for (std::size_t i = 1; i < snapshots.size(); ++i)
        windows += window_line(snapshots[i - 1], snapshots[i]);
    if (!write_text(windows_path, windows) ||
        !perfbench::write_spans(spans_path, {&trace})) {
        std::fprintf(stderr, "perfbench_node: cannot write trace output\n");
        return 1;
    }
    if (shim != nullptr && !o.out.empty() &&
        write_sequence(o.out, shim->reported_deliveries()) != 0)
        return 1;
    return done.load() ? 0 : 1;
}
