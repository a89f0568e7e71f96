// perfbench_sim — the sim-fig7-* workloads: WbCast or FT-Skeen on the
// simulator in the paper's Fig. 7 LAN shape (10 groups x 3 replicas,
// 20-byte payloads, 40-60 us one-way delay, 400 closed-loop clients each
// multicasting to 2 groups), with the replica configuration and CPU cost
// model of bench/bench_fig7_lan.cpp. One thread, no sockets.
//
//   perfbench_sim --proto=wbcast|ftskeen --seed=N --seconds=S --out=DIR
//                 [--trace=0|1]
//
// The run is ten rounds. Each builds a fresh world and runs it to its first
// completed multicast (the set-up the benchmark times), warms it up for
// 20 ms of simulated time (tens of closed-loop round trips), then measures
// for S/10 seconds of wall-clock time. Afterwards the clients stop issuing
// and the world drains. Every replica delivery and every client send's
// destination group is written under DIR as it happens, for the benchmark's
// delivery check: none of that record stays on the heap, so the resident
// set the round reports is the simulator's own. One JSON line per round
// goes to stdout. With --trace=1 every process is wrapped in a
// TimingProcess and the spans of round r are written to DIR/r<r>_spans.bin.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_load.hpp"
#include "client/bench_coordinator.hpp"
#include "harness/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "tracing.hpp"

using namespace wbam;

namespace {

constexpr int kRounds = 10;
constexpr int kClients = 400;
constexpr int kGroups = 10;
constexpr int kGroupSize = 3;

struct Options {
    harness::ProtocolKind proto = harness::ProtocolKind::wbcast;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string out;
    bool trace = false;
};

struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Flushes and closes `f`; false if any write to it failed.
bool close_file(File& f) {
    std::FILE* raw = f.release();
    const bool ok = std::ferror(raw) == 0;
    return std::fclose(raw) == 0 && ok;
}

// Records the group of every client multicast send (the first send of a
// message goes to the leader of each destination group; a retry repeats
// the line), and lets the run stop the closed loop: once stopped, acks
// and retry timers no longer reach the client, so it issues nothing new
// and the world drains.
class ClientRecorder final : public Process {
public:
    ClientRecorder(std::unique_ptr<Process> inner, const Topology* topo,
                   std::FILE* addressed, const bool* stopped)
        : inner_(std::move(inner)), topo_(topo), addressed_(addressed),
          stopped_(stopped) {}

    void on_start(Context& ctx) override {
        ctx_.bind(&ctx, this);
        inner_->on_start(ctx_);
    }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        if (*stopped_) return;
        ctx_.bind(&ctx, this);
        inner_->on_message(ctx_, from, bytes);
    }
    void on_timer(Context& ctx, TimerId id) override {
        if (*stopped_) return;
        ctx_.bind(&ctx, this);
        inner_->on_timer(ctx_, id);
    }

private:
    class Ctx final : public Context {
    public:
        void bind(Context* inner, ClientRecorder* owner) {
            inner_ = inner;
            owner_ = owner;
        }
        ProcessId self() const override { return inner_->self(); }
        TimePoint now() const override { return inner_->now(); }
        void send(ProcessId to, BufferSlice bytes) override {
            owner_->note(to, bytes);
            inner_->send(to, std::move(bytes));
        }
        TimerId set_timer(Duration d) override { return inner_->set_timer(d); }
        void cancel_timer(TimerId id) override { inner_->cancel_timer(id); }
        Rng& rng() override { return inner_->rng(); }
        void charge(Duration w) override { inner_->charge(w); }

    private:
        Context* inner_ = nullptr;
        ClientRecorder* owner_ = nullptr;
    };

    void note(ProcessId to, const BufferSlice& bytes) {
        const codec::EnvelopeView env(bytes);
        if (env.module == codec::Module::client &&
            env.type == static_cast<std::uint8_t>(ClientMsgType::multicast))
            std::fprintf(addressed_, "%016llx %d\n",
                         static_cast<unsigned long long>(env.about),
                         topo_->group_of(to));
    }

    std::unique_ptr<Process> inner_;
    const Topology* topo_;
    std::FILE* addressed_;
    const bool* stopped_;
    Ctx ctx_;
};

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](const char* name) -> const char* {
            const std::size_t n = std::strlen(name);
            return a.compare(0, n, name) == 0 ? argv[i] + n : nullptr;
        };
        if (const char* v = value("--proto=")) {
            const auto kind = harness::parse_protocol_kind(v);
            if (!kind) {
                std::fprintf(stderr, "perfbench_sim: unknown --proto=%s\n", v);
                return false;
            }
            o.proto = *kind;
        } else if (const char* v = value("--seed=")) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value("--seconds=")) {
            o.seconds = std::strtod(v, nullptr);
        } else if (const char* v = value("--out=")) {
            o.out = v;
        } else if (const char* v = value("--trace=")) {
            o.trace = std::strcmp(v, "1") == 0;
        } else {
            std::fprintf(stderr, "perfbench_sim: unknown argument %s\n",
                         argv[i]);
            return false;
        }
    }
    return !o.out.empty() && o.seconds > 0;
}

std::int64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// A field of /proc/self/status in kB ("VmRSS:").
long status_kb(const char* field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(field, 0) == 0)
            return std::atol(line.c_str() + std::strlen(field));
    return 0;
}

// The bytes of span records the round's traces hold: the tracer's own
// memory, which the round's resident-set growth leaves out.
long span_kb(const std::vector<std::unique_ptr<perfbench::ProcessTrace>>& ts) {
    std::size_t spans = 0;
    for (const auto& t : ts)
        for (const perfbench::ProcessTrace::Log& log : t->logs)
            spans += log.end_ns.size();
    return static_cast<long>(spans * 2 * sizeof(std::int64_t) / 1024);
}

// The rank rule of stats::Histogram::percentile, over exact samples.
Duration percentile(std::vector<Duration>& samples, double q) {
    if (samples.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
    return samples[rank];
}

std::string buckets_json(const stats::Histogram& h) {
    std::string out = "[";
    const std::vector<std::uint64_t>& b = h.raw_buckets();
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (b[i] == 0) continue;
        out += (out.size() > 1 ? ", [" : "[") +
               std::to_string(stats::Histogram::bucket_upper_bound(i)) + ", " +
               std::to_string(b[i]) + "]";
    }
    return out + "]";
}

// One round; returns false on an I/O failure or if nothing completes.
bool run_round(const Options& o, int round) {
    const std::string prefix = o.out + "/r" + std::to_string(round) + "_";

    const std::int64_t t_setup = perfbench::monotonic_ns();
    const Topology topo(kGroups, kGroupSize, kClients, false);
    auto world = std::make_unique<sim::World>(
        topo,
        std::make_unique<sim::JitterDelay>(microseconds(40),
                                           microseconds(20)),
        o.seed * 1000 + static_cast<std::uint64_t>(round),
        bench::bench_cpu_model());
    client::BenchCoordinator coordinator(topo);
    const DeliverySink ack = coordinator.make_sink();
    std::vector<File> sequences;
    for (ProcessId p = 0; p < topo.num_replicas(); ++p) {
        sequences.emplace_back(std::fopen(
            (prefix + "replica_" + std::to_string(p) + ".txt").c_str(), "w"));
        if (!sequences.back()) return false;
    }
    File addressed(std::fopen((prefix + "addressed.txt").c_str(), "w"));
    if (!addressed) return false;
    DeliverySink sink = [&](Context& ctx, GroupId g, const AppMessage& m) {
        std::fprintf(sequences[static_cast<std::size_t>(ctx.self())].get(),
                     "%016llx\n", static_cast<unsigned long long>(m.id));
        ack(ctx, g, m);
    };
    std::vector<std::unique_ptr<perfbench::ProcessTrace>> traces;
    const auto wrap = [&](ProcessId p, std::unique_ptr<Process> proc)
        -> std::unique_ptr<Process> {
        if (!o.trace) return proc;
        traces.push_back(std::make_unique<perfbench::ProcessTrace>(p));
        return std::make_unique<perfbench::TimingProcess>(
            std::move(proc), traces.back().get());
    };
    const ReplicaConfig replica = bench::quiet_replica_config();
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        world->add_process(
            p, wrap(p, harness::make_replica(o.proto, topo, p, sink,
                                             replica)));
    bool stopped = false;
    client::LoadPattern pattern;
    pattern.dest_groups = 2;
    pattern.payload_size = 20;
    for (int i = 0; i < topo.num_clients(); ++i) {
        const ProcessId c = topo.client(i);
        world->add_process(
            c, wrap(c, std::make_unique<ClientRecorder>(
                           std::make_unique<client::LoadClient>(
                               topo, &coordinator, pattern),
                           &topo, addressed.get(), &stopped)));
    }
    // Set-up ends at the first completed multicast, as on TCP; the 20 ms
    // of simulated warmup that follow are not part of it.
    world->start();
    for (int i = 0; coordinator.completed_total() == 0; ++i) {
        if (i == 10'000) {  // one simulated second
            world.reset();
            return false;
        }
        world->run_for(microseconds(100));
    }
    const std::int64_t t_started = perfbench::monotonic_ns();
    world->run_for(milliseconds(20));

    // The coordinator's sampler records one exact latency sample per
    // operation that completes (first delivery in every destination group)
    // while the window is open: the operations completed_in_window counts.
    const std::int64_t t_open = perfbench::monotonic_ns();
    const std::int64_t cpu_open = process_cpu_ns();
    const long rss_open = status_kb("VmRSS:") - span_kb(traces);
    const obs::MetricsSnapshot reg_open = obs::metrics().snapshot();
    const std::uint64_t events_open = world->events_processed();
    const TimePoint sim_open = world->now();
    coordinator.set_window(sim_open, time_never);
    const std::int64_t budget_ns =
        static_cast<std::int64_t>(o.seconds / kRounds * 1e9);
    while (perfbench::monotonic_ns() - t_open < budget_ns)
        world->run_for(milliseconds(1));
    coordinator.close_window(world->now());
    const std::int64_t t_close = perfbench::monotonic_ns();
    const std::int64_t cpu_close = process_cpu_ns();
    const long rss_close = status_kb("VmRSS:") - span_kb(traces);
    const obs::MetricsSnapshot reg =
        obs::metrics().snapshot().delta_since(reg_open);
    const std::uint64_t events = world->events_processed() - events_open;
    const double sim_seconds = to_secs(world->now() - sim_open);
    std::vector<Duration> latencies = coordinator.sampler().drain_samples();

    // Drain: no new multicasts; everything in flight gets delivered.
    stopped = true;
    world->run_for(milliseconds(200));

    bool ok = close_file(addressed);
    for (File& f : sequences) ok = close_file(f) && ok;
    if (o.trace) {
        std::vector<const perfbench::ProcessTrace*> all;
        for (const auto& t : traces) all.push_back(t.get());
        ok = ok && perfbench::write_spans(prefix + "spans.bin", all);
    }
    std::printf(
        "{\"round\": %d, \"setup_s\": %.6f, \"t_open_ns\": %lld, "
        "\"t_close_ns\": %lld, \"ops\": %llu, \"cpu_ns\": %lld, "
        "\"events\": %llu, \"sim_seconds\": %.6f, \"buffers_frozen\": %llu, "
        "\"bytes_copied\": %llu, \"rss_open_kb\": %ld, \"rss_close_kb\": %ld, "
        "\"replicas\": %d, \"group_size\": %d, \"leaders\": [",
        round, static_cast<double>(t_started - t_setup) / 1e9,
        static_cast<long long>(t_open), static_cast<long long>(t_close),
        static_cast<unsigned long long>(coordinator.completed_in_window()),
        static_cast<long long>(cpu_close - cpu_open),
        static_cast<unsigned long long>(events), sim_seconds,
        static_cast<unsigned long long>(reg.counter("buffer/buffers_frozen")),
        static_cast<unsigned long long>(reg.counter("buffer/bytes_copied")),
        rss_open, rss_close, topo.num_replicas(), kGroupSize);
    for (GroupId g = 0; g < kGroups; ++g)
        std::printf("%s%d", g ? ", " : "", topo.initial_leader(g));
    std::printf("], \"samples\": %zu, \"p50_ns\": %lld, \"p99_ns\": %lld, "
                "\"stage_buckets\": {",
                latencies.size(),
                static_cast<long long>(percentile(latencies, 0.50)),
                static_cast<long long>(percentile(latencies, 0.99)));
    bool first = true;
    for (const auto& [name, h] : reg.histograms) {
        if (name.rfind("stage/", 0) != 0 || h.count() == 0) continue;
        std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                    buckets_json(h).c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    // The world holds processes that point into this frame (the sink, the
    // coordinator): destroy it first.
    world.reset();
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfbench_sim --proto=wbcast|ftskeen --seed=N "
                     "--seconds=S --out=DIR [--trace=0|1]\n");
        return 2;
    }
    for (int r = 0; r < kRounds; ++r) {
        if (!run_round(o, r)) {
            std::fprintf(stderr,
                         "perfbench_sim: round %d failed (no multicast "
                         "completed, or cannot write under %s)\n",
                         r, o.out.c_str());
            return 1;
        }
    }
    return 0;
}
