// LineFramer: the byte-stream-to-request-line layer shared by both
// TCP front ends. CRLF handling, frames split across recv boundaries,
// pipelined frames in one segment, empty lines, oversize rejection.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace chainsplit {
namespace {

using Result = LineFramer::Result;

/// Feeds `data` in one Append and drains every complete line.
std::vector<std::string> DrainAll(LineFramer* framer,
                                  const std::string& data) {
  framer->Append(data.data(), data.size());
  std::vector<std::string> lines;
  std::string line;
  while (framer->Next(&line) == Result::kLine) lines.push_back(line);
  return lines;
}

TEST(LineFramerTest, SingleLine) {
  LineFramer framer;
  EXPECT_EQ(DrainAll(&framer, "?- p(X).\n"),
            (std::vector<std::string>{"?- p(X)."}));
  std::string line;
  EXPECT_EQ(framer.Next(&line), Result::kNeedMore);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LineFramerTest, StripsCarriageReturn) {
  LineFramer framer;
  EXPECT_EQ(DrainAll(&framer, "p(a).\r\nq(b).\r\n"),
            (std::vector<std::string>{"p(a).", "q(b)."}));
}

TEST(LineFramerTest, CarriageReturnOnlyInsideLineSurvives) {
  LineFramer framer;
  // Only the terminator's \r is protocol framing; interior bytes pass
  // through untouched.
  EXPECT_EQ(DrainAll(&framer, "a\rb\n"), (std::vector<std::string>{"a\rb"}));
}

TEST(LineFramerTest, FrameSplitAcrossArbitraryBoundaries) {
  const std::string stream = "?- tc(a,\r\nY).\n\np(b).\n";
  const std::vector<std::string> expected{"?- tc(a,", "Y).", "", "p(b)."};
  // Every split position, including byte-by-byte, yields identical
  // framing.
  for (size_t split = 0; split <= stream.size(); ++split) {
    LineFramer framer;
    std::vector<std::string> lines;
    std::string line;
    framer.Append(stream.data(), split);
    while (framer.Next(&line) == Result::kLine) lines.push_back(line);
    framer.Append(stream.data() + split, stream.size() - split);
    while (framer.Next(&line) == Result::kLine) lines.push_back(line);
    EXPECT_EQ(lines, expected) << "split at " << split;
  }
}

TEST(LineFramerTest, ManyPipelinedFramesInOneSegment) {
  LineFramer framer;
  std::string burst;
  for (int i = 0; i < 500; ++i) burst += "?- p(X).\n";
  EXPECT_EQ(DrainAll(&framer, burst).size(), 500u);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LineFramerTest, EmptyLinesAreLines) {
  LineFramer framer;
  EXPECT_EQ(DrainAll(&framer, "\n\r\n\n"),
            (std::vector<std::string>{"", "", ""}));
}

TEST(LineFramerTest, OversizeUnterminatedLineRejected) {
  LineFramer framer(16);
  std::string line;
  std::string flood(17, 'x');  // no newline, over the limit
  framer.Append(flood.data(), flood.size());
  EXPECT_EQ(framer.Next(&line), Result::kOversize);
  // Poisoned: the stream has no recoverable framing.
  framer.Append("\np(a).\n", 7);
  EXPECT_EQ(framer.Next(&line), Result::kOversize);
}

TEST(LineFramerTest, OversizeCompleteLineRejected) {
  LineFramer framer(16);
  std::string line;
  std::string big = std::string(17, 'x') + "\np(a).\n";
  framer.Append(big.data(), big.size());
  EXPECT_EQ(framer.Next(&line), Result::kOversize);
}

TEST(LineFramerTest, LineExactlyAtLimitAccepted) {
  LineFramer framer(16);
  std::string data = std::string(16, 'x') + "\n";
  EXPECT_EQ(DrainAll(&framer, data),
            (std::vector<std::string>{std::string(16, 'x')}));
}

TEST(LineFramerTest, UnderLimitAccumulationNotRejected) {
  LineFramer framer(16);
  std::string line;
  framer.Append("12345678", 8);  // under the limit, no newline yet
  EXPECT_EQ(framer.Next(&line), Result::kNeedMore);
  framer.Append("9\n", 2);
  EXPECT_EQ(framer.Next(&line), Result::kLine);
  EXPECT_EQ(line, "123456789");
}

TEST(LineFramerTest, ZeroMeansUnlimited) {
  LineFramer framer(0);
  std::string huge(1 << 20, 'x');
  huge += "\n";
  std::vector<std::string> lines = DrainAll(&framer, huge);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), 1u << 20);
}

TEST(LineFramerTest, OversizeFrameNamesTheLimit) {
  EXPECT_EQ(OversizeFrame(4096),
            "% error: request line exceeds 4096 bytes\n.\n");
}

/// Seeded random byte streams fed at random split points under random
/// limits: the lines that come out are the stream's lines, each with
/// its terminator's \r stripped, up to the first line longer than the
/// limit; from there on the framer answers kOversize, whatever follows.
TEST(LineFramerTest, RandomStreamsAtRandomSplitsReassemble) {
  std::mt19937 rng(2027);
  for (int round = 0; round < 3000; ++round) {
    const size_t max_line = rng() % 4 == 0 ? 0 : rng() % 24;
    std::string stream(rng() % 160, '\0');
    for (char& c : stream) {
      const uint32_t pick = rng() % 16;
      c = pick < 3 ? '\n' : pick < 5 ? '\r' : static_cast<char>(rng());
    }

    // The oracle: split at every \n; a raw line (\r included) over the
    // limit poisons the stream, as does an unterminated tail over it.
    std::vector<std::string> want;
    bool want_oversize = false;
    size_t at = 0;
    for (size_t nl; (nl = stream.find('\n', at)) != std::string::npos;
         at = nl + 1) {
      std::string line = stream.substr(at, nl - at);
      if (max_line > 0 && line.size() > max_line) {
        want_oversize = true;
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      want.push_back(line);
    }
    if (!want_oversize && max_line > 0 && stream.size() - at > max_line) {
      want_oversize = true;
    }

    LineFramer framer(max_line);
    std::vector<std::string> got;
    bool oversize = false;
    std::string line;
    for (size_t fed = 0; fed < stream.size() && !oversize;) {
      const size_t n = std::min<size_t>(1 + rng() % 24, stream.size() - fed);
      framer.Append(stream.data() + fed, n);
      fed += n;
      Result result;
      while ((result = framer.Next(&line)) == Result::kLine) {
        got.push_back(line);
      }
      oversize = result == Result::kOversize;
    }
    ASSERT_EQ(got, want) << "round " << round;
    ASSERT_EQ(oversize, want_oversize) << "round " << round;
    if (oversize) {
      framer.Append("ok\n", 3);  // poisoned: valid bytes do not revive it
      EXPECT_EQ(framer.Next(&line), Result::kOversize);
    }
  }
}

}  // namespace
}  // namespace chainsplit
