// Span tracing for the benchmark's traced runs, recorded entirely from the
// benchmark's own code around the calls into each layer of the program:
//
//   handler     TimingProcess: on_start / on_message / on_timer of the
//               wrapped process (the protocol layer's entry)
//   send        TimingContext: Context::send / send_many (the transport's
//               entry)
//   apply       every kv::ShardState::apply call (linker --wrap)
//   wal_commit  every wal::Log::commit call (linker --wrap)
//
// Spans are kept in memory, one log per (process, kind), and written out at
// the end of the run (write_spans). A span is its end time and its
// duration. The end time is CLOCK_MONOTONIC, the clock Python's
// time.monotonic_ns() reads, so spans line up with the window the
// benchmark script opens and closes from outside; each log is appended in
// end-time order, so the reader cuts a window out of it with a binary
// search. The duration is the calling thread's CPU time: with more loop
// threads than CPUs a handler can be preempted in the middle, and an fsync
// blocks without using the CPU, so wall time would overstate both.
#ifndef PERFBENCH_TRACING_HPP
#define PERFBENCH_TRACING_HPP

#include <array>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "common/process.hpp"

namespace perfbench {

enum class SpanKind : std::uint32_t {
    handler = 0,
    send = 1,
    apply = 2,
    wal_commit = 3,
};
inline constexpr std::size_t num_span_kinds = 4;

inline std::int64_t clock_ns(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t monotonic_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t thread_cpu_ns() {
    return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

// All spans of one traced process.
struct ProcessTrace {
    explicit ProcessTrace(wbam::ProcessId p) : pid(p) {}

    // `cpu_start`: thread_cpu_ns() when the span began.
    void add(SpanKind kind, std::int64_t cpu_start) {
        Log& log = logs[static_cast<std::size_t>(kind)];
        log.dur_ns.push_back(thread_cpu_ns() - cpu_start);
        log.end_ns.push_back(monotonic_ns());
    }

    struct Log {
        std::vector<std::int64_t> end_ns;
        std::vector<std::int64_t> dur_ns;
    };
    wbam::ProcessId pid;
    std::array<Log, num_span_kinds> logs;
};

// The trace of the handler running on this thread (null outside handlers);
// the --wrap'd free functions record into it.
ProcessTrace*& current_trace();

// Forwards every call to the runtime's Context; times the sends.
class TimingContext final : public wbam::Context {
public:
    void bind(wbam::Context* inner, ProcessTrace* trace) {
        inner_ = inner;
        trace_ = trace;
    }

    wbam::ProcessId self() const override { return inner_->self(); }
    wbam::TimePoint now() const override { return inner_->now(); }
    void send(wbam::ProcessId to, wbam::BufferSlice bytes) override;
    void send_many(const std::vector<wbam::ProcessId>& to,
                   wbam::BufferSlice bytes) override;
    wbam::TimerId set_timer(wbam::Duration delay) override {
        return inner_->set_timer(delay);
    }
    void cancel_timer(wbam::TimerId id) override { inner_->cancel_timer(id); }
    wbam::Rng& rng() override { return inner_->rng(); }
    void charge(wbam::Duration cpu_work) override { inner_->charge(cpu_work); }

private:
    wbam::Context* inner_ = nullptr;
    ProcessTrace* trace_ = nullptr;
};

// Decorator over a Process: each entry point is one handler span, run
// against a TimingContext so the sends inside it are spans too.
class TimingProcess final : public wbam::Process {
public:
    TimingProcess(std::unique_ptr<wbam::Process> inner, ProcessTrace* trace)
        : inner_(std::move(inner)), trace_(trace) {}

    void on_start(wbam::Context& ctx) override;
    void on_message(wbam::Context& ctx, wbam::ProcessId from,
                    const wbam::BufferSlice& bytes) override;
    void on_timer(wbam::Context& ctx, wbam::TimerId id) override;

private:
    template <typename F>
    void timed(wbam::Context& ctx, F&& call);

    std::unique_ptr<wbam::Process> inner_;
    ProcessTrace* trace_;
    TimingContext ctx_;
};

// Binary span file: for every (process, kind) log, a header of three
// little-endian u64 (pid, kind, n) followed by n i64 end times and n i64
// durations (nanoseconds).
bool write_spans(const std::string& path,
                 const std::vector<const ProcessTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_HPP
