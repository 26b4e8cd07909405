#ifndef QUAESTOR_NET_FRAMING_H_
#define QUAESTOR_NET_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace quaestor::net {

/// One length-prefixed message on a frame connection. The channel names
/// the transport queue (or control topic) the payload belongs to; the
/// priority byte (common/request_context.h Priority values, lower = more
/// important) lets a congested sender shed the least important classes
/// first instead of buffering without bound.
struct Frame {
  uint8_t priority = 2;  // Priority::kNormal
  std::string channel;
  std::string payload;
};

/// Control topic: a frame sent on this channel subscribes the sending
/// connection to every channel whose name starts with the payload. The
/// leading control byte keeps it out of the queue namespace.
inline constexpr std::string_view kSubscribeChannel = "\x01sub";

/// Upper bound on a frame's length-of-rest. A peer announcing more is
/// protocol breakage (or garbage on the port) — the connection is
/// dropped rather than waiting for gigabytes that never arrive.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// Wire format (integers big-endian):
///   u32  length of everything after this field
///   u8   priority
///   u16  channel length, then the channel bytes
///   payload (the remainder)
void AppendFrame(std::string* out, const Frame& frame);
std::string EncodeFrame(const Frame& frame);

enum class FrameDecode {
  kFrame,     // one frame decoded; *consumed bytes used
  kNeedMore,  // torn frame: keep the bytes, read more
  kError,     // unrecoverable stream (oversized / malformed header)
};

/// Decodes one frame from the head of `in`.
FrameDecode DecodeFrame(std::string_view in, Frame* frame, size_t* consumed);

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_FRAMING_H_
