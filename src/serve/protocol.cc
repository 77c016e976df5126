#include "serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace kgc::serve {

namespace {

void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(uint32_t v, std::string* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendU64(uint64_t v, std::string* out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendFloatBits(float v, std::string* out) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(bits, out);
}

/// Bounds-checked little-endian cursor over a decoded payload. Every read
/// fails closed: once a field runs past the end, all subsequent reads fail
/// too, so decoders only need one `ok()` check at the end.
class Cursor {
 public:
  explicit Cursor(const std::string& payload) : data_(payload) {}

  uint8_t ReadU8() {
    if (pos_ + 1 > data_.size()) return Fail<uint8_t>();
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t ReadU32() {
    if (pos_ + 4 > data_.size()) return Fail<uint32_t>();
    uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << shift;
    }
    return v;
  }

  uint64_t ReadU64() {
    if (pos_ + 8 > data_.size()) return Fail<uint64_t>();
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << shift;
    }
    return v;
  }

  float ReadFloatBits() {
    uint32_t bits = ReadU32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T Fail() {
    ok_ = false;
    pos_ = data_.size();
    return T{};
  }

  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Polls `fd` for `events` with a budget measured against `deadline_ms`
/// (absolute steady-clock ms; <0 = no deadline). Returns +1 ready, 0
/// timeout, -1 error/hangup-without-data.
int PollFor(int fd, short events, int64_t deadline_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    int wait = -1;
    if (deadline_ms >= 0) {
      int64_t left = deadline_ms - NowMillis();
      if (left <= 0) return 0;
      wait = static_cast<int>(std::min<int64_t>(left, 1000));
    }
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) {
      if (deadline_ms < 0) continue;
      if (NowMillis() >= deadline_ms) return 0;
      continue;
    }
    // POLLHUP alongside POLLIN still lets us drain buffered bytes.
    if (pfd.revents & (events | POLLHUP | POLLERR)) return 1;
  }
}

int64_t DeadlineFromTimeout(int timeout_ms) {
  return timeout_ms > 0 ? NowMillis() + timeout_ms : -1;
}

/// Reads exactly `n` bytes into `out`. kNotFound only when EOF lands before
/// the first byte AND `eof_ok`; kIoError otherwise.
Status ReadExact(int fd, size_t n, bool eof_ok, int64_t deadline_ms,
                 std::string* out) {
  out->clear();
  out->reserve(n);
  char buf[4096];
  while (out->size() < n) {
    int ready = PollFor(fd, POLLIN, deadline_ms);
    if (ready == 0) return Status::IoError("read frame: timed out");
    if (ready < 0) return Status::IoError("read frame: poll failed");
    size_t want = std::min(n - out->size(), sizeof(buf));
    ssize_t got = ::recv(fd, buf, want, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("read frame: ") +
                             std::strerror(errno));
    }
    if (got == 0) {
      if (out->empty() && eof_ok) return Status::NotFound("connection closed");
      return Status::IoError("read frame: unexpected EOF mid-frame");
    }
    out->append(buf, static_cast<size_t>(got));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  std::string out;
  AppendU8(kProtocolVersion, &out);
  AppendU8(static_cast<uint8_t>(request.type), &out);
  AppendU64(request.id, &out);
  AppendU32(request.deadline_ms, &out);
  switch (request.type) {
    case RequestType::kTopK:
      AppendU8(request.tails ? 1 : 0, &out);
      AppendU8(request.filtered ? 1 : 0, &out);
      AppendU32(static_cast<uint32_t>(request.relation), &out);
      AppendU32(static_cast<uint32_t>(request.anchor), &out);
      AppendU32(request.k, &out);
      break;
    case RequestType::kClassify:
      AppendU32(static_cast<uint32_t>(request.triple.head), &out);
      AppendU32(static_cast<uint32_t>(request.triple.relation), &out);
      AppendU32(static_cast<uint32_t>(request.triple.tail), &out);
      break;
    case RequestType::kPing:
      break;
  }
  return out;
}

void AppendTopKBody(const std::vector<TopKEntry>& entries, std::string* out) {
  AppendU32(static_cast<uint32_t>(entries.size()), out);
  for (const TopKEntry& entry : entries) {
    AppendU32(static_cast<uint32_t>(entry.entity), out);
    AppendFloatBits(entry.score, out);
  }
}

void AppendClassifyBody(float score, bool label, float threshold,
                        std::string* out) {
  AppendFloatBits(score, out);
  AppendU8(label ? 1 : 0, out);
  AppendFloatBits(threshold, out);
}

std::string EncodeReply(const Reply& reply) {
  std::string out;
  AppendU8(kProtocolVersion, &out);
  AppendU8(static_cast<uint8_t>(reply.status), &out);
  AppendU8(reply.flags, &out);
  AppendU64(reply.id, &out);
  AppendU64(static_cast<uint64_t>(reply.generation), &out);
  if (reply.status == ReplyStatus::kOk) {
    switch (reply.type) {
      case RequestType::kTopK:
        AppendTopKBody(reply.entries, &out);
        break;
      case RequestType::kClassify:
        AppendClassifyBody(reply.score, reply.label, reply.threshold, &out);
        break;
      case RequestType::kPing:
        break;
    }
  }
  return out;
}

Status DecodeRequest(const std::string& payload, Request* request) {
  Cursor cursor(payload);
  uint8_t version = cursor.ReadU8();
  if (cursor.ok() && version != kProtocolVersion) {
    return Malformed("unsupported protocol version");
  }
  uint8_t raw_type = cursor.ReadU8();
  request->id = cursor.ReadU64();
  request->deadline_ms = cursor.ReadU32();
  switch (raw_type) {
    case static_cast<uint8_t>(RequestType::kTopK): {
      request->type = RequestType::kTopK;
      request->tails = cursor.ReadU8() != 0;
      request->filtered = cursor.ReadU8() != 0;
      request->relation = static_cast<RelationId>(cursor.ReadU32());
      request->anchor = static_cast<EntityId>(cursor.ReadU32());
      request->k = cursor.ReadU32();
      break;
    }
    case static_cast<uint8_t>(RequestType::kClassify): {
      request->type = RequestType::kClassify;
      request->triple.head = static_cast<EntityId>(cursor.ReadU32());
      request->triple.relation = static_cast<RelationId>(cursor.ReadU32());
      request->triple.tail = static_cast<EntityId>(cursor.ReadU32());
      break;
    }
    case static_cast<uint8_t>(RequestType::kPing):
      request->type = RequestType::kPing;
      break;
    default:
      return cursor.ok() ? Malformed("unknown request type")
                         : Malformed("truncated request header");
  }
  if (!cursor.ok()) return Malformed("truncated request body");
  if (!cursor.AtEnd()) return Malformed("trailing bytes after request");
  return Status::Ok();
}

Status DecodeReply(const std::string& payload, RequestType expected_type,
                   Reply* reply) {
  Cursor cursor(payload);
  uint8_t version = cursor.ReadU8();
  if (cursor.ok() && version != kProtocolVersion) {
    return Malformed("unsupported protocol version");
  }
  uint8_t raw_status = cursor.ReadU8();
  if (raw_status > static_cast<uint8_t>(ReplyStatus::kInternal)) {
    return Malformed("unknown reply status");
  }
  reply->status = static_cast<ReplyStatus>(raw_status);
  reply->flags = cursor.ReadU8();
  reply->id = cursor.ReadU64();
  reply->generation = static_cast<int64_t>(cursor.ReadU64());
  reply->type = expected_type;
  reply->entries.clear();
  if (reply->status == ReplyStatus::kOk) {
    switch (expected_type) {
      case RequestType::kTopK: {
        uint32_t n = cursor.ReadU32();
        if (!cursor.ok() || n > kMaxFrameBytes / 8) {
          return Malformed("bad top-K entry count");
        }
        reply->entries.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          TopKEntry entry;
          entry.entity = static_cast<EntityId>(cursor.ReadU32());
          entry.score = cursor.ReadFloatBits();
          reply->entries.push_back(entry);
        }
        break;
      }
      case RequestType::kClassify:
        reply->score = cursor.ReadFloatBits();
        reply->label = cursor.ReadU8() != 0;
        reply->threshold = cursor.ReadFloatBits();
        break;
      case RequestType::kPing:
        break;
    }
  }
  if (!cursor.ok()) return Malformed("truncated reply");
  if (!cursor.AtEnd()) return Malformed("trailing bytes after reply");
  return Status::Ok();
}

StatusOr<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("connect " + path + ": " + std::strerror(err));
  }
  return fd;
}

Status WriteFrame(int fd, const std::string& payload, int timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  std::string wire;
  wire.reserve(payload.size() + 4);
  AppendU32(static_cast<uint32_t>(payload.size()), &wire);
  wire.append(payload);
  int64_t deadline_ms = DeadlineFromTimeout(timeout_ms);
  size_t sent = 0;
  while (sent < wire.size()) {
    int ready = PollFor(fd, POLLOUT, deadline_ms);
    if (ready == 0) return Status::IoError("write frame: timed out");
    if (ready < 0) return Status::IoError("write frame: poll failed");
    // MSG_NOSIGNAL: a dead peer should surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("write frame: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFrame(int fd, int timeout_ms) {
  int64_t deadline_ms = DeadlineFromTimeout(timeout_ms);
  std::string header;
  KGC_RETURN_IF_ERROR(
      ReadExact(fd, 4, /*eof_ok=*/true, deadline_ms, &header));
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<uint8_t>(header[i]);
  }
  if (length > kMaxFrameBytes) {
    // kInvalidArgument (not kIoError) so the server can tell "client sent
    // garbage" (typed MALFORMED reply) from "connection broke" (close).
    return Status::InvalidArgument("read frame: oversized length prefix");
  }
  std::string payload;
  KGC_RETURN_IF_ERROR(
      ReadExact(fd, length, /*eof_ok=*/false, deadline_ms, &payload));
  return payload;
}

}  // namespace kgc::serve
