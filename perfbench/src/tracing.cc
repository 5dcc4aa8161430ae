#include "tracing.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

using hybridtier::OpTrace;

uint64_t MonotonicNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t CalibrateClockNs() {
  std::vector<uint64_t> deltas(4001);
  for (uint64_t& delta : deltas) {
    const uint64_t start = MonotonicNs();
    delta = MonotonicNs() - start;
  }
  std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                   deltas.end());
  return deltas[deltas.size() / 2];
}

const char* HookName(Hook hook) {
  switch (hook) {
    case Hook::kGen: return "gen";
    case Hook::kAccess: return "policy.access";
    case Hook::kSample: return "policy.sample";
    case Hook::kTick: return "policy.tick";
    case Hook::kHealth: return "policy.health";
    case Hook::kMigrate: return "migrate";
    case Hook::kCount: break;
  }
  return "?";
}

Tracer::Tracer(uint32_t sample_every, size_t span_cap, uint64_t record_skip,
               size_t record_cap, size_t sample_cap)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      span_cap_(span_cap),
      record_skip_(record_skip),
      record_cap_(record_cap),
      sample_cap_(sample_cap) {
  spans_.reserve(span_cap_);
  streams_.addrs.reserve(record_cap_);
}

Tracer::Open Tracer::Begin(Hook hook, bool timed) {
  Open open;
  open.timed = timed;
  if (!timed) return open;
  if (spans_.size() < span_cap_) {
    open.index = static_cast<int32_t>(spans_.size());
    Span span;
    span.hook = hook;
    span.op = ops_ == 0 ? 0 : ops_ - 1;
    span.parent = hook == Hook::kMigrate && parent_open_ ? open_parent_ : -1;
    spans_.push_back(span);
  } else {
    ++dropped_spans_;
  }
  if (hook != Hook::kMigrate && hook != Hook::kGen) {
    parent_open_ = true;
    open_parent_ = open.index;
    open_child_ns_ = 0;
  }
  open.start_ns = MonotonicNs();
  return open;
}

void Tracer::End(Hook hook, const Open& open, uint64_t items,
                 uint64_t failed) {
  HookStats& stats = stats_[static_cast<size_t>(hook)];
  ++stats.calls;
  stats.items += items;
  stats.failed += failed;
  if (!open.timed) return;
  const uint64_t end = MonotonicNs();
  const uint64_t duration = end - open.start_ns;
  ++stats.timed_calls;
  stats.timed_ns += duration;
  if (open.index >= 0) {
    spans_[static_cast<size_t>(open.index)].start_ns = open.start_ns;
    spans_[static_cast<size_t>(open.index)].end_ns = end;
  }
  if (hook == Hook::kMigrate) {
    if (parent_open_) open_child_ns_ += duration;
  } else if (hook != Hook::kGen) {
    stats.child_ns += open_child_ns_;
    parent_open_ = false;
  }
}

void Tracer::RecordOp(const OpTrace& op, TimeNs now, uint32_t tenant) {
  const uint64_t seen = accesses_seen_;
  accesses_seen_ += op.size();
  if (op.size() == 0 || seen < record_skip_) return;
  if (streams_.addrs.size() + op.size() > record_cap_) return;
  streams_.ops.push_back(RecordedOp{streams_.addrs.size(), now, tenant});
  for (const hybridtier::MemoryAccess& access : op.accesses) {
    streams_.addrs.push_back(access.addr);
  }
}

void Tracer::ObserveIssue(TimeNs now, const OpTrace& op) {
  if (have_prev_) {
    observed_latency_ns_ += now - prev_now_ - prev_think_;
    ++observed_ops_;
  }
  have_prev_ = !op.accesses.empty();
  prev_now_ = now;
  prev_think_ = op.think_time_ns;
}

void Tracer::FinishRun(TimeNs end_ns) {
  if (have_prev_) {
    observed_latency_ns_ += end_ns - prev_now_ - prev_think_;
    ++observed_ops_;
  }
  have_prev_ = false;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns == 0) continue;  // Never closed (capped mid-span).
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}",
                 first ? "" : ",\n", HookName(span.hook),
                 static_cast<double>(span.start_ns - origin) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                 i, span.parent, static_cast<unsigned long long>(span.op));
    first = false;
  }
  std::fprintf(out, "\n],\"droppedSpans\":%llu}\n",
               static_cast<unsigned long long>(dropped_spans_));
  return std::fclose(out) == 0;
}

bool TracedWorkload::NextOp(TimeNs now, OpTrace* op) {
  const bool timed = tracer_->BeginOp();
  const Tracer::Open open = tracer_->Begin(Hook::kGen, timed);
  const bool more = inner_->NextOp(now, op);
  tracer_->End(Hook::kGen, open);
  if (more) {
    tracer_->ObserveIssue(now, *op);
    tracer_->RecordOp(*op, now, CurrentTenant());
  }
  return more;
}

std::unique_ptr<TracedWorkload> WrapWorkload(hybridtier::Workload* inner,
                                             Tracer* tracer) {
  if (auto* tags = dynamic_cast<hybridtier::TenantTagSource*>(inner)) {
    return std::make_unique<TracedTenantWorkload>(inner, tags, tracer);
  }
  return std::make_unique<TracedWorkload>(inner, tracer);
}

TimeNs TimedMigrationEngine::Promote(std::span<const PageId> pages,
                                     TimeNs now,
                                     hybridtier::MigrationReason reason) {
  const uint64_t failed_before = Failed();
  const Tracer::Open open = tracer_->Begin(Hook::kMigrate, true);
  const TimeNs duration = inner_->Promote(pages, now, reason);
  tracer_->End(Hook::kMigrate, open, pages.size(), Failed() - failed_before);
  return duration;
}

TimeNs TimedMigrationEngine::Demote(std::span<const PageId> pages,
                                    TimeNs now,
                                    hybridtier::MigrationReason reason) {
  const uint64_t failed_before = Failed();
  const Tracer::Open open = tracer_->Begin(Hook::kMigrate, true);
  const TimeNs duration = inner_->Demote(pages, now, reason);
  tracer_->End(Hook::kMigrate, open, pages.size(), Failed() - failed_before);
  return duration;
}

TracedPolicy::TracedPolicy(hybridtier::TieringPolicy* inner, Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      quota_(dynamic_cast<const hybridtier::TenantQuotaStatsSource*>(inner)),
      invariants_(dynamic_cast<const hybridtier::InvariantSource*>(inner)) {}

void TracedPolicy::Bind(const hybridtier::PolicyContext& context) {
  TieringPolicy::Bind(context);
  engine_ = std::make_unique<TimedMigrationEngine>(context.migration,
                                                   tracer_);
  hybridtier::PolicyContext timed = context;
  timed.migration = engine_.get();
  inner_->Bind(timed);
}

void TracedPolicy::OnAccess(PageId unit, const hybridtier::TouchResult& touch,
                            TimeNs now) {
  const Tracer::Open open = tracer_->Begin(Hook::kAccess, tracer_->timed_op());
  inner_->OnAccess(unit, touch, now);
  tracer_->End(Hook::kAccess, open);
}

void TracedPolicy::OnAccessBatchImpl(
    std::span<const hybridtier::TouchEvent> events) {
  const Tracer::Open open = tracer_->Begin(Hook::kAccess, tracer_->timed_op());
  inner_->OnAccessBatch(events);
  tracer_->End(Hook::kAccess, open);
}

void TracedPolicy::OnSample(const hybridtier::SampleRecord& sample) {
  tracer_->RecordSample(sample.page);
  const Tracer::Open open = tracer_->Begin(Hook::kSample, true);
  inner_->OnSample(sample);
  tracer_->End(Hook::kSample, open);
}

void TracedPolicy::Tick(TimeNs now) {
  const Tracer::Open open = tracer_->Begin(Hook::kTick, true);
  inner_->Tick(now);
  tracer_->End(Hook::kTick, open);
}

void TracedPolicy::OnEndpointHealth(uint32_t endpoint,
                                    hybridtier::EndpointHealth state,
                                    TimeNs now) {
  const Tracer::Open open = tracer_->Begin(Hook::kHealth, true);
  inner_->OnEndpointHealth(endpoint, state, now);
  tracer_->End(Hook::kHealth, open);
}

void TracedPolicy::OnExternalMigration(TimeNs now) {
  const Tracer::Open open = tracer_->Begin(Hook::kHealth, true);
  inner_->OnExternalMigration(now);
  tracer_->End(Hook::kHealth, open);
}

}  // namespace perfbench
