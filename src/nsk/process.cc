#include "nsk/process.h"

#include <utility>

#include "common/log.h"

namespace ods::nsk {

void Request::Respond(Status status, Payload body) {
  if (!reply.has_value() || cluster == nullptr) return;
  if (cluster->fabric().FirstHealthyRail() < 0) return;  // reply lost
  auto promise = *std::move(reply);
  reply.reset();
  Reply r{std::move(status), std::move(body)};
  cluster->NoteMessageBytes(r.payload.size());
  cluster->sim().After(cluster->MessageLatency(r.payload.size()),
                       [promise, r = std::move(r)]() mutable {
                         promise.Set(std::move(r));
                       });
}

NskProcess::NskProcess(Cluster& cluster, int cpu_index, std::string name)
    : Process(cluster.sim(), std::move(name)), cluster_(cluster),
      cpu_(cluster.cpu(cpu_index)), mailbox_(cluster.sim()) {
  cpu_.Attach(this);
}

sim::Task<void> NskProcess::Compute(sim::SimDuration work) {
  auto guard = co_await cpu_.compute().Acquire(*this);
  co_await Sleep(work);
}

void NskProcess::DeliverLater(Request req) {
  cluster_.NoteMessageBytes(req.payload.size());
  cluster_.sim().After(cluster_.MessageLatency(req.payload.size()),
                       [this, req = std::move(req)]() mutable {
                         if (alive() && !cpu_.failed()) {
                           mailbox_.Send(std::move(req));
                         }
                       });
}

sim::Task<Result<Reply>> NskProcess::Call(const std::string& target,
                                          std::uint32_t kind,
                                          Payload payload,
                                          CallOptions opts) {
  Status last(ErrorCode::kUnavailable, "no attempt made");
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (attempt > 0) co_await Sleep(opts.retry_backoff);
    NskProcess* t = cluster_.names().Lookup(target);
    if (t == nullptr || !t->alive() || t->cpu().failed()) {
      last = Status(ErrorCode::kUnavailable, "target not registered: " + target);
      continue;
    }
    if (cluster_.fabric().FirstHealthyRail() < 0) {
      last = Status(ErrorCode::kUnavailable, "fabric down");
      continue;
    }
    co_await Compute(cluster_.config().message_overhead);
    sim::Promise<Reply> promise(cluster_.sim());
    auto fut = promise.GetFuture();
    t->DeliverLater(
        Request{name(), kind, payload, std::move(promise), &cluster_});
    auto r = co_await fut.WaitFor(*this, opts.timeout);
    if (r.has_value()) co_return std::move(*r);
    last = Status(ErrorCode::kTimedOut, "no reply from " + target);
  }
  co_return last;
}

void NskProcess::Cast(const std::string& target, std::uint32_t kind,
                      Payload payload) {
  NskProcess* t = cluster_.names().Lookup(target);
  if (t == nullptr || cluster_.fabric().FirstHealthyRail() < 0) return;
  t->DeliverLater(
      Request{name(), kind, std::move(payload), std::nullopt, &cluster_});
}

Status NameService::Register(const std::string& name, NskProcess* proc) {
  names_[name] = proc;
  history_.push_back({name, sim_.Now(), true});
  return OkStatus();
}

void NameService::Unregister(const std::string& name) {
  names_.erase(name);
  history_.push_back({name, sim_.Now(), false});
}

NskProcess* NameService::Lookup(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? nullptr : it->second;
}

}  // namespace ods::nsk
