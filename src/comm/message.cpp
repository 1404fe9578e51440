#include "comm/message.h"

#include <atomic>

#include "common/clock.h"

namespace xt {
namespace {
std::atomic<std::uint64_t> g_next_msg_id{1};
}  // namespace

std::uint64_t next_message_id() {
  return g_next_msg_id.fetch_add(1, std::memory_order_relaxed);
}

Outbound make_outbound(NodeId src, std::vector<NodeId> dsts, MsgType type,
                       Payload body, std::uint32_t tag) {
  Outbound out;
  out.header.msg_id = next_message_id();
  out.header.src = src;
  out.header.dsts = std::move(dsts);
  out.header.type = type;
  out.header.created_ns = now_ns();
  out.header.tag = tag;
  out.body = std::move(body);
  return out;
}

Outbound make_deferred_outbound(NodeId src, std::vector<NodeId> dsts,
                                MsgType type, std::function<Bytes()> producer,
                                std::uint32_t tag) {
  Outbound out = make_outbound(std::move(src), std::move(dsts), type,
                               empty_payload(), tag);
  out.producer = std::move(producer);
  return out;
}

}  // namespace xt
