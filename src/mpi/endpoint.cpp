#include "mpi/endpoint.hpp"

#include <cstring>

namespace cord::mpi {

sim::Task<std::size_t> Endpoint::recv(int src, int tag, std::span<std::byte> out) {
  // 1. Already-arrived eager message?
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      if (it->data.size() > out.size()) {
        throw std::runtime_error("MPI recv truncation (unexpected path)");
      }
      const std::size_t n = it->data.size();
      std::memcpy(out.data(), it->data.data(), n);
      co_await core().work(core().memcpy_time(n), os::Work::kCompute);
      unexpected_.erase(it);
      co_return n;
    }
  }
  // 2. Already-announced rendezvous?
  for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      PendingRts rts = *it;
      pending_rts_.erase(it);
      if (rts.size > out.size()) {
        throw std::runtime_error("MPI recv truncation (rendezvous path)");
      }
      PostedRecv pr{src, tag, out, 0, true, false};
      posted_.push_back(&pr);
      co_await start_pull(pr, rts);
      co_await progress_until([&] { return pr.done; }, "recv (rendezvous)");
      posted_.remove(&pr);
      co_return pr.got;
    }
  }
  // 3. Post and wait.
  PostedRecv pr{src, tag, out, 0, false, false};
  posted_.push_back(&pr);
  co_await progress_until([&] { return pr.done; }, "recv (posted)");
  posted_.remove(&pr);
  co_return pr.got;
}

void Endpoint::deliver_eager(int src, int tag, std::span<const std::byte> payload) {
  move_activity();
  for (PostedRecv* pr : posted_) {
    if (!pr->matched && pr->src == src && pr->tag == tag) {
      if (payload.size() > pr->out.size()) {
        throw std::runtime_error("MPI recv truncation (eager delivery)");
      }
      std::memcpy(pr->out.data(), payload.data(), payload.size());
      pr->got = payload.size();
      pr->matched = true;
      pr->done = true;
      pending_copy_cost_ += core().memcpy_time(payload.size());
      return;
    }
  }
  UnexpectedMsg msg{src, tag, {payload.begin(), payload.end()}};
  pending_copy_cost_ += core().memcpy_time(payload.size());
  unexpected_.push_back(std::move(msg));
}

sim::Time Endpoint::IdleLoop::step() {
  if (ep_.activity_ != seen_) return kWake;
  switch (at_) {
    case At::kRecvPoll:
      at_ = At::kSettle;
      return ep_.charge_poll_miss();
    case At::kSettle:
      at_ = At::kHead;
      if (++idle > kSpins) {
        return ep_.core().charge(backoff(idle), os::Work::kSpin);
      }
      [[fallthrough]];
    case At::kHead: {
      if (ep_.core().engine().now() > deadline_) return kWake;
      const sim::Time d = ep_.charge_poll_miss();
      if (d != kWake) at_ = after_head_;
      return d;
    }
  }
  return kWake;
}

Endpoint::PostedRecv* Endpoint::deliver_rts(const PendingRts& rts) {
  for (PostedRecv* pr : posted_) {
    if (!pr->matched && pr->src == rts.src && pr->tag == rts.tag) {
      if (rts.size > pr->out.size()) {
        throw std::runtime_error("MPI recv truncation (RTS delivery)");
      }
      pr->matched = true;
      return pr;
    }
  }
  pending_rts_.push_back(rts);
  return nullptr;
}

}  // namespace cord::mpi
