// Wire messages the two related-work baselines share. Each payload is the
// baseline's own message-type byte, then one of these field lists
// (WireEncodeTagged, WireDecodeTagged), so the baselines need no codec of
// their own.
#ifndef SDR_BENCH_BASELINES_MESSAGES_H_
#define SDR_BENCH_BASELINES_MESSAGES_H_

#include <cstdint>

#include "src/store/query.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr {

// The body of a tagged message decoded as T, when its first byte is `tag`.
template <typename T>
Result<T> WireDecodeTagged(uint8_t tag, BytesView payload) {
  if (payload.empty() || payload[0] != tag) {
    return Error(ErrorCode::kCorrupt, "unexpected message type");
  }
  return WireDecode<T>(payload.substr(1));
}

// A query sent for execution: to the state-signing master (every query but
// a point read) or to each SMR replica of the quorum.
struct BaselineRead {
  uint64_t request_id = 0;
  Query query;
  SDR_WIRE_FIELDS(BaselineRead, request_id, query)
};

// The executor's answer: the result's canonical QueryResult encoding.
struct BaselineReadReply {
  uint64_t request_id = 0;
  Bytes result;
  SDR_WIRE_FIELDS(BaselineReadReply, request_id, result)
};

}  // namespace sdr

#endif  // SDR_BENCH_BASELINES_MESSAGES_H_
