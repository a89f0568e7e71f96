#include "tracing.hpp"

#include <cstdio>

namespace perfbench {

ProcessTrace*& current_trace() {
    thread_local ProcessTrace* trace = nullptr;
    return trace;
}

void TimingContext::send(wbam::ProcessId to, wbam::BufferSlice bytes) {
    const std::int64_t t0 = thread_cpu_ns();
    inner_->send(to, std::move(bytes));
    trace_->add(SpanKind::send, t0);
}

void TimingContext::send_many(const std::vector<wbam::ProcessId>& to,
                              wbam::BufferSlice bytes) {
    const std::int64_t t0 = thread_cpu_ns();
    inner_->send_many(to, std::move(bytes));
    trace_->add(SpanKind::send, t0);
}

template <typename F>
void TimingProcess::timed(wbam::Context& ctx, F&& call) {
    ProcessTrace*& current = current_trace();
    ProcessTrace* const outer = current;
    current = trace_;
    ctx_.bind(&ctx, trace_);
    const std::int64_t t0 = thread_cpu_ns();
    call(ctx_);
    trace_->add(SpanKind::handler, t0);
    current = outer;
}

void TimingProcess::on_start(wbam::Context& ctx) {
    timed(ctx, [&](wbam::Context& c) { inner_->on_start(c); });
}

void TimingProcess::on_message(wbam::Context& ctx, wbam::ProcessId from,
                               const wbam::BufferSlice& bytes) {
    timed(ctx, [&](wbam::Context& c) { inner_->on_message(c, from, bytes); });
}

void TimingProcess::on_timer(wbam::Context& ctx, wbam::TimerId id) {
    timed(ctx, [&](wbam::Context& c) { inner_->on_timer(c, id); });
}

bool write_spans(const std::string& path,
                 const std::vector<const ProcessTrace*>& traces) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    bool ok = true;
    for (const ProcessTrace* t : traces) {
        for (std::size_t k = 0; k < num_span_kinds; ++k) {
            const ProcessTrace::Log& log = t->logs[k];
            const std::uint64_t header[3] = {
                static_cast<std::uint64_t>(t->pid), k, log.end_ns.size()};
            ok = ok && std::fwrite(header, sizeof header, 1, f) == 1;
            const std::size_t n = log.end_ns.size();
            if (n == 0) continue;
            ok = ok &&
                 std::fwrite(log.end_ns.data(), sizeof(std::int64_t), n, f) ==
                     n &&
                 std::fwrite(log.dur_ns.data(), sizeof(std::int64_t), n, f) ==
                     n;
        }
    }
    return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

// Layer boundaries inside the library, timed without touching it: the
// traced executables link with -Wl,--wrap=<symbol>, which routes every
// call the library's other objects make to these functions. `this` is the
// first argument of a non-static member function in the Itanium C++ ABI.
namespace {

template <typename F>
void timed_call(perfbench::SpanKind kind, F&& call) {
    perfbench::ProcessTrace* const trace = perfbench::current_trace();
    if (trace == nullptr) {
        call();
        return;
    }
    const std::int64_t t0 = perfbench::thread_cpu_ns();
    call();
    trace->add(kind, t0);
}

}  // namespace

extern "C" {

// wbam::kv::ShardState::apply(const wbam::kv::KvOp&)
void __real__ZN4wbam2kv10ShardState5applyERKNS0_4KvOpE(void* self,
                                                       const void* op);
void __wrap__ZN4wbam2kv10ShardState5applyERKNS0_4KvOpE(void* self,
                                                       const void* op) {
    timed_call(perfbench::SpanKind::apply, [&] {
        __real__ZN4wbam2kv10ShardState5applyERKNS0_4KvOpE(self, op);
    });
}

// wbam::wal::Log::commit()
void __real__ZN4wbam3wal3Log6commitEv(void* self);
void __wrap__ZN4wbam3wal3Log6commitEv(void* self) {
    timed_call(perfbench::SpanKind::wal_commit,
               [&] { __real__ZN4wbam3wal3Log6commitEv(self); });
}

}  // extern "C"
