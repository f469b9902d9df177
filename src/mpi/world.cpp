#include "mpi/world.hpp"

namespace cord::mpi {

sim::Task<> Rank::barrier() {
  const int n = size();
  std::byte token{0x42};
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (id_ + k) % n;
    const int src = (id_ - k + n) % n;
    const int tag = coll_tag();
    std::byte got;
    co_await sendrecv<std::byte>(dst, tag, {&token, 1}, src, tag, {&got, 1});
  }
}

World::World(core::System& system, int nranks, WorldConfig cfg)
    : system_(&system), cfg_(cfg), nranks_(nranks) {}

World::Traffic World::traffic() const {
  Traffic t;
  if (cfg_.net == NetMode::kIpoib) {
    for (const auto& s : stacks_) {
      t.messages += s->segments_tx();
      t.bytes += s->bytes_tx();
    }
  } else {
    for (std::size_t h = 0; h < system_->host_count(); ++h) {
      const nic::NicCounters& c = system_->host(h).nic().counters();
      t.messages += c.tx_msgs;
      t.bytes += c.tx_bytes;
    }
  }
  return t;
}

sim::Task<> World::setup_verbs() {
  const verbs::DataplaneMode mode = cfg_.net == NetMode::kCord
                                        ? verbs::DataplaneMode::kCord
                                        : verbs::DataplaneMode::kBypass;
  std::vector<VerbsEndpoint*> eps;
  std::vector<int> local_core(system_->host_count(), 0);
  for (int r = 0; r < nranks_; ++r) {
    os::Host& host = system_->host(static_cast<std::size_t>(host_of(r)));
    const int core_idx = local_core[static_cast<std::size_t>(host_of(r))]++;
    verbs::ContextOptions opts = system_->options(mode, cfg_.tenant);
    // CoRD ranks poll their CQs from user space. MPI libraries poll in a
    // tight loop, so kernel-routed polls throttle rendezvous turnaround
    // badly; the paper's NPB results (CoRD ~ 1.0 on communication-bound
    // kernels) are only consistent with the CQ being polled from
    // user-mapped memory while the posting verbs trap. The abl_poll_path
    // bench quantifies the alternative.
    opts.poll_via_kernel = false;
    verbs::Context ctx(host, static_cast<std::size_t>(core_idx), opts);
    auto ep = std::make_unique<VerbsEndpoint>(r, nranks_, std::move(ctx),
                                              cfg_.srq_slots);
    eps.push_back(ep.get());
    ranks_.push_back(std::make_unique<Rank>(r, std::move(ep)));
  }
  for (VerbsEndpoint* ep : eps) co_await ep->setup();
  for (int i = 0; i < nranks_; ++i) {
    for (int j = i + 1; j < nranks_; ++j) {
      co_await VerbsEndpoint::wire(*eps[i], *eps[j]);
    }
  }
}

sim::Task<> World::setup_sockets() {
  for (std::size_t h = 0; h < system_->host_count(); ++h) {
    stacks_.push_back(std::make_unique<sock::SocketStack>(
        system_->host(h), *system_->network_ptr()));
  }
  std::vector<SocketEndpoint*> eps;
  std::vector<int> local_core(system_->host_count(), 0);
  for (int r = 0; r < nranks_; ++r) {
    const auto h = static_cast<std::size_t>(host_of(r));
    os::Core& core = system_->host(h).core(
        static_cast<std::size_t>(local_core[h]++));
    auto ep = std::make_unique<SocketEndpoint>(r, nranks_, core, *stacks_[h]);
    eps.push_back(ep.get());
    ranks_.push_back(std::make_unique<Rank>(r, std::move(ep)));
  }
  for (int i = 0; i < nranks_; ++i) {
    for (int j = i + 1; j < nranks_; ++j) {
      auto [si, sj] = sock::SocketStack::connect(
          *stacks_[static_cast<std::size_t>(host_of(i))],
          *stacks_[static_cast<std::size_t>(host_of(j))]);
      eps[i]->attach(j, si);
      eps[j]->attach(i, sj);
    }
  }
  co_return;
}

sim::Time World::run(std::function<sim::Task<>(Rank&)> body) {
  sim::Engine& engine = system_->engine();
  sim::Time t_start = 0;
  sim::Time t_end = 0;

  std::exception_ptr error;

  engine.spawn([](World& w, std::function<sim::Task<>(Rank&)> body,
                  sim::Time& t_start, sim::Time& t_end,
                  std::exception_ptr& error) -> sim::Task<> {
    try {
      if (w.cfg_.net == NetMode::kIpoib) {
        co_await w.setup_sockets();
      } else {
        co_await w.setup_verbs();
      }
      // Launch every rank: barrier, body, then record the last finisher.
      std::vector<std::unique_ptr<sim::Joinable>> joins;
      int remaining = w.size();
      for (int r = 0; r < w.size(); ++r) {
        joins.push_back(std::make_unique<sim::Joinable>(
            w.system_->engine(),
            [](Rank& rank, std::function<sim::Task<>(Rank&)>& body,
               sim::Time& t_start, sim::Time& t_end,
               int& remaining) -> sim::Task<> {
              co_await rank.barrier();
              if (rank.id() == 0) t_start = rank.now();
              co_await body(rank);
              if (--remaining == 0) t_end = rank.now();
            }(w.rank(r), body, t_start, t_end, remaining)));
      }
      // Join every rank even if some threw: destroying a Joinable while
      // its wrapper still runs would leave dangling latches.
      std::exception_ptr first_error;
      for (auto& j : joins) {
        try {
          co_await j->join();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
    } catch (...) {
      error = std::current_exception();
    }
  }(*this, std::move(body), t_start, t_end, error));

  engine.run();
  if (error) std::rethrow_exception(error);
  if (t_end == 0) throw std::runtime_error("MPI world did not complete");
  return t_end - t_start;
}

}  // namespace cord::mpi
