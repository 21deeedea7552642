#include "src/core/directory.h"

#include "src/util/logging.h"

namespace sdr {

void Directory::Publish(const Bytes& content_public_key,
                        std::vector<Certificate> master_certs) {
  by_content_[content_public_key] = std::move(master_certs);
}

void Directory::PublishPlacement(const Bytes& content_public_key,
                                 ShardPlacement placement) {
  placement_by_content_[content_public_key] = std::move(placement);
}

void Directory::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  if (*type == MsgType::kPlacementQuery) {
    auto msg = PlacementQuery::Decode(payload.view().substr(1));
    if (!msg.ok()) {
      return;
    }
    PlacementReply reply;
    auto it = placement_by_content_.find(msg->content_public_key);
    if (it != placement_by_content_.end()) {
      reply.found = true;
      reply.placement = it->second;
    }
    env()->Send(from, EncodeTyped(MsgType::kPlacementReply, reply));
    return;
  }
  if (*type != MsgType::kDirectoryLookup) {
    return;
  }
  auto msg = DirectoryLookup::Decode(payload.view().substr(1));
  if (!msg.ok()) {
    return;
  }
  DirectoryLookupReply reply;
  auto it = by_content_.find(msg->content_public_key);
  if (it != by_content_.end()) {
    reply.master_certs = it->second;
  }
  ++lookups_served_;
  env()->Send(from, EncodeTyped(MsgType::kDirectoryLookupReply, reply));
}

}  // namespace sdr
