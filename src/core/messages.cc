#include "src/core/messages.h"

#include "src/crypto/sha1.h"

namespace sdr {

const Bytes& EmptyResultEncoding() {
  static const Bytes kEmpty = QueryResult{}.Encode();
  return kEmpty;
}

Result<MsgType> PeekType(BytesView payload) {
  if (payload.empty()) {
    return Error(ErrorCode::kCorrupt, "empty payload");
  }
  return static_cast<MsgType>(payload[0]);
}

Bytes WithType(MsgType type, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(static_cast<uint8_t>(type));
  Append(out, body);
  return out;
}

Result<TobPayloadType> PeekTobType(BytesView payload) {
  if (payload.empty()) {
    return Error(ErrorCode::kCorrupt, "empty TOB payload");
  }
  return static_cast<TobPayloadType>(payload[0]);
}

Bytes StateUpdateBatch::BatchesSha1() const {
  Sha1 digest;
  for (const WriteBatch& batch : batches) {
    digest.Update(WireEncode(batch));
  }
  return digest.Final();
}

}  // namespace sdr
