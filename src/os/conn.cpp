#include "os/conn.hpp"

#include <algorithm>
#include <stdexcept>

namespace cord::os {

ConnectionService::ConnectionService(Host& host, ConnMode mode,
                                     std::uint32_t pool_size)
    : host_(&host), mode_(mode), pool_size_(std::max(pool_size, 1u)) {
  pd_ = host.nic().alloc_pd();
  cq_ = host.nic().create_cq(4096);
}

void ConnectionService::wire(ConnectionService& a, ConnectionService& b,
                             std::size_t logical) {
  if (a.mode_ != b.mode_) {
    throw std::invalid_argument("conn services must share a mode");
  }
  const std::size_t phys =
      a.mode_ == ConnMode::kShared ? std::min<std::size_t>(a.pool_size_, logical)
                                   : logical;
  const std::size_t base_a = a.qps_.size();
  const std::size_t base_b = b.qps_.size();
  for (std::size_t i = 0; i < phys; ++i) {
    nic::QpConfig qc;
    qc.send_cq = a.cq_;
    qc.recv_cq = a.cq_;
    qc.pd = a.pd_;
    nic::QueuePair* qa = a.host_->nic().create_qp(qc);
    qc.send_cq = b.cq_;
    qc.recv_cq = b.cq_;
    qc.pd = b.pd_;
    nic::QueuePair* qb = b.host_->nic().create_qp(qc);
    a.host_->nic().modify_qp(*qa, nic::QpState::kInit);
    b.host_->nic().modify_qp(*qb, nic::QpState::kInit);
    a.host_->nic().modify_qp(*qa, nic::QpState::kRtr,
                             {b.host_->node(), qb->qpn()});
    b.host_->nic().modify_qp(*qb, nic::QpState::kRtr,
                             {a.host_->node(), qa->qpn()});
    a.host_->nic().modify_qp(*qa, nic::QpState::kRts);
    b.host_->nic().modify_qp(*qb, nic::QpState::kRts);
    a.qps_.push_back(qa);
    b.qps_.push_back(qb);
  }
  a.logical_.reserve(a.logical_.size() + logical);
  b.logical_.reserve(b.logical_.size() + logical);
  for (std::size_t c = 0; c < logical; ++c) {
    // Round-robin onto the pool: in exclusive mode phys == logical, so
    // this degenerates to the identity mapping (one QP per connection).
    a.logical_.push_back(LogicalConn{
        b.host_->node(), static_cast<std::uint32_t>(base_a + c % phys), 0});
    b.logical_.push_back(LogicalConn{
        a.host_->node(), static_cast<std::uint32_t>(base_b + c % phys), 0});
  }
}

}  // namespace cord::os
