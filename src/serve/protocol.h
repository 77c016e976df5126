// kgc_serve wire protocol v1: length-prefixed binary frames over a stream
// socket (DESIGN.md "Serving").
//
// Every message is one frame:
//
//   u32  payload_length   little-endian, must be <= kMaxFrameBytes
//   u8[] payload          payload_length bytes
//
// Request payload:
//
//   u8  version (kProtocolVersion)
//   u8  type    (RequestType)
//   u64 id      client-chosen, echoed verbatim in the reply
//   u32 deadline_ms   per-request budget measured from server receipt;
//                     0 = the server's default
//   -- kTopK:     u8 tails, u8 filtered, u32 relation, u32 anchor, u32 k
//   -- kClassify: u32 head, u32 relation, u32 tail
//   -- kPing:     (empty)
//
// Reply payload:
//
//   u8  version
//   u8  status  (ReplyStatus)
//   u8  flags   (bit 0: kReplyFlagDegraded — reserved; the server, whose
//               top-K has one path, never sets it)
//   u64 id
//   i64 generation   snapshot generation that answered (-1 when none)
//   -- kOk + kTopK:     u32 n, then n x { u32 entity, u32 score_bits }
//   -- kOk + kClassify: u32 score_bits, u8 label, u32 threshold_bits
//   -- any error status: (empty)
//
// All integers are little-endian; floats travel as IEEE-754 bit patterns
// (u32), so a reply body is bit-reproducible and can be fingerprinted with
// a CRC — kgc_load validates every response against expected body CRCs
// computed from the same snapshot.
//
// Robustness contract (tests/serve_test.cc malformed-input corpus): any
// frame the decoder rejects — oversized length prefix, short payload, bad
// version, unknown type, trailing garbage — earns a typed kMalformed reply
// and a clean connection close; it must never crash or desync the server.

#ifndef KGC_SERVE_PROTOCOL_H_
#define KGC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/topk.h"
#include "kg/triple.h"
#include "util/status.h"

namespace kgc::serve {

inline constexpr uint8_t kProtocolVersion = 1;
/// Upper bound on one frame's payload. A length prefix beyond this is
/// malformed by definition (it would otherwise let one client stall the
/// reader on a multi-gigabyte allocation).
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

enum class RequestType : uint8_t {
  kTopK = 1,
  kClassify = 2,
  kPing = 3,
};

enum class ReplyStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,         ///< shed by admission control; retry later
  kDeadlineExceeded = 2,   ///< budget expired before the batch reached it
  kMalformed = 3,          ///< request failed to decode
  kUnavailable = 4,        ///< no snapshot generation loaded / draining
  kInternal = 5,           ///< injected or unexpected server-side failure
};

inline constexpr uint8_t kReplyFlagDegraded = 1u << 0;

/// Bytes before an OK reply's body: version, status, flags, id, generation.
/// kgc_load fingerprints reply bodies as payload.substr(kReplyHeaderBytes).
inline constexpr size_t kReplyHeaderBytes = 1 + 1 + 1 + 8 + 8;

struct Request {
  RequestType type = RequestType::kPing;
  uint64_t id = 0;
  uint32_t deadline_ms = 0;
  // kTopK fields.
  bool tails = true;
  bool filtered = false;
  RelationId relation = 0;
  EntityId anchor = 0;
  uint32_t k = 0;
  // kClassify fields.
  Triple triple;
};

struct Reply {
  ReplyStatus status = ReplyStatus::kOk;
  uint8_t flags = 0;
  uint64_t id = 0;
  int64_t generation = -1;
  // kOk + kTopK body.
  std::vector<TopKEntry> entries;
  // kOk + kClassify body.
  float score = 0.0f;
  bool label = false;
  float threshold = 0.0f;
  /// What the OK body decodes as (mirrors the request type).
  RequestType type = RequestType::kPing;
};

/// Renders `request` as a frame payload (no length prefix).
std::string EncodeRequest(const Request& request);

/// Renders `reply` as a frame payload (no length prefix).
std::string EncodeReply(const Reply& reply);

/// Decodes a request payload. Any failure is kInvalidArgument — the server
/// maps it to a kMalformed reply.
Status DecodeRequest(const std::string& payload, Request* request);

/// Decodes a reply payload. `expected_type` selects how an OK body is
/// parsed (the reply wire format does not repeat the request type).
Status DecodeReply(const std::string& payload, RequestType expected_type,
                   Reply* reply);

/// Appends the kTopK OK body (u32 n + entity/score-bit pairs) to `out`.
/// Shared by the server encoder and kgc_load's expected-body
/// fingerprinting, so both sides render bit-identical bytes.
void AppendTopKBody(const std::vector<TopKEntry>& entries, std::string* out);

/// Appends the kClassify OK body to `out` (same sharing contract).
void AppendClassifyBody(float score, bool label, float threshold,
                        std::string* out);

// ---------------------------------------------------------------------------
// Blocking frame I/O for clients (kgc_load, tests). The server uses its own
// poll loops so it can watch the stop flag; clients just need bounded waits.

/// Connects to the Unix-domain stream socket at `path`. Returns the fd.
StatusOr<int> ConnectUnix(const std::string& path);

/// Writes one frame (length prefix + payload). `timeout_ms` bounds the
/// total wait for writability; <= 0 means block indefinitely.
Status WriteFrame(int fd, const std::string& payload, int timeout_ms);

/// Reads one frame's payload. kNotFound on clean EOF at a frame boundary;
/// kInvalidArgument on an oversized length prefix (client garbage — reply
/// MALFORMED); kIoError on timeouts or mid-frame EOF.
StatusOr<std::string> ReadFrame(int fd, int timeout_ms);

}  // namespace kgc::serve

#endif  // KGC_SERVE_PROTOCOL_H_
