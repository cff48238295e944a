// Wire-protocol tests: exhaustive round-trips plus the malformed-input
// matrix.  The decoder's promise is that NO byte stream -- truncated,
// oversized, version-skewed, or hostile -- crashes it, reads out of bounds
// (ATP_SANITIZE covers that), or allocates unboundedly; bad streams surface
// as DecodeStatus::kBad / FrameReader::bad() so the owner drops the
// connection.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace atp::server {
namespace {

std::vector<MsgKind> all_kinds() {
  return {MsgKind::kHello, MsgKind::kBegin,   MsgKind::kOp,
          MsgKind::kCommit, MsgKind::kAbort,  MsgKind::kPing,
          MsgKind::kHelloOk, MsgKind::kOk,    MsgKind::kValue,
          MsgKind::kError};
}

WireMessage full_message(MsgKind k) {
  WireMessage m;
  m.kind = k;
  m.seq = 0x0123456789abcdefULL;
  m.txn = 42;
  m.op = 3;
  m.key = 0xfeedface;
  m.value = -1234.5625;
  m.text = "class-or-error \"text\" with bytes \x01\x7f";
  return m;
}

TEST(Protocol, RoundTripsEveryKind) {
  for (const MsgKind k : all_kinds()) {
    const WireMessage in = full_message(k);
    const std::string bytes = encode_frame(in);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kOk)
        << to_string(k);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(in, out) << to_string(k);
  }
}

TEST(Protocol, RoundTripsEmptyTextAndZeroFields) {
  WireMessage in;  // all defaults
  const std::string bytes = encode_frame(in);
  WireMessage out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(in, out);
}

TEST(Protocol, DoubleBitPatternsSurvive) {
  for (const double v : {0.0, -0.0, 1e-308, -1.75, 3.5e307,
                         std::numeric_limits<double>::infinity()}) {
    WireMessage in;
    in.value = v;
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(encode_frame(in), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(std::memcmp(&in.value, &out.value, sizeof(double)), 0);
  }
}

TEST(Protocol, TruncatedFramesNeedMore) {
  const std::string bytes = encode_frame(full_message(MsgKind::kOp));
  // Every strict prefix is an incomplete frame, never an error.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WireMessage out;
    std::size_t consumed = 99;
    EXPECT_EQ(decode_frame(std::string_view(bytes).substr(0, len), &out,
                           &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(Protocol, RejectsOversizedLength) {
  std::string bytes = encode_frame(WireMessage{});
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data(), &huge, sizeof huge);
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(Protocol, RejectsBadVersion) {
  std::string bytes = encode_frame(WireMessage{});
  bytes[4] = char(kProtocolVersion + 1);
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(Protocol, RejectsVersionOneFrame) {
  // Version 2 dropped version 1's f64 export limit: the fixed record is 35
  // bytes, and a version-1 frame (43-byte record) is refused, not misread.
  EXPECT_EQ(encode_frame(WireMessage{}).size(), 4u + 2 + 35);
  const std::uint32_t len = 2 + 43;
  std::string bytes(4, '\0');
  std::memcpy(bytes.data(), &len, sizeof len);
  bytes.push_back(char(1));
  bytes.push_back(char(MsgKind::kBegin));
  bytes.append(43, '\0');
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(Protocol, RejectsUnknownKind) {
  std::string bytes = encode_frame(WireMessage{});
  bytes[5] = char(0xee);
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(Protocol, RejectsTextLengthDisagreeingWithFrame) {
  WireMessage in;
  in.text = "abcdef";
  std::string bytes = encode_frame(in);
  // Inflate the inner text length without growing the frame.
  const std::size_t text_len_off = bytes.size() - in.text.size() - 2;
  bytes[text_len_off] = char(0xff);
  bytes[text_len_off + 1] = char(0x7f);
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(Protocol, RejectsLengthBelowMinimum) {
  std::string bytes = encode_frame(WireMessage{});
  const std::uint32_t tiny = 2;  // version + kind but no payload
  std::memcpy(bytes.data(), &tiny, sizeof tiny);
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes, &out, &consumed), DecodeStatus::kBad);
}

TEST(FrameReader, ReassemblesByteAtATime) {
  const WireMessage in = full_message(MsgKind::kBegin);
  const std::string bytes = encode_frame(in);
  FrameReader r;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    r.feed(std::string_view(bytes).substr(i, 1));
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.bad());
  }
  r.feed(std::string_view(bytes).substr(bytes.size() - 1));
  const auto out = r.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReader, PopsMultipleFramesFromOneFeed) {
  std::string stream;
  std::vector<WireMessage> sent;
  for (const MsgKind k : all_kinds()) {
    sent.push_back(full_message(k));
    encode_frame(sent.back(), &stream);
  }
  FrameReader r;
  r.feed(stream);
  for (const WireMessage& expect : sent) {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expect);
  }
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.bad());
}

TEST(FrameReader, GoesBadOnCorruptStreamAndStaysBad) {
  FrameReader r;
  std::string bytes = encode_frame(WireMessage{});
  bytes[4] = char(0x77);  // wrong version
  r.feed(bytes);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.bad());
  // Feeding a valid frame afterwards cannot resynchronize framing.
  r.feed(encode_frame(WireMessage{}));
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.bad());
}

TEST(FrameReader, DiscardsBytesOnceBad) {
  FrameReader r;
  std::string bytes = encode_frame(WireMessage{});
  bytes[4] = char(0x77);  // wrong version
  r.feed(bytes);
  EXPECT_FALSE(r.next().has_value());
  ASSERT_TRUE(r.bad());
  EXPECT_EQ(r.buffered(), 0u);
  // A hostile peer that keeps streaming after the stream went bad must not
  // grow the buffer while the owner gets around to dropping the connection.
  r.feed(std::string(1 << 16, 'x'));
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReader, HandlesGarbageWithoutCrashing) {
  // Random-ish hostile bytes, including a plausible length prefix.
  std::string garbage;
  for (int i = 0; i < 4096; ++i) garbage += char((i * 131 + 7) & 0xff);
  FrameReader r;
  r.feed(garbage);
  while (r.next().has_value()) {
  }
  EXPECT_TRUE(r.bad());
}

}  // namespace
}  // namespace atp::server
