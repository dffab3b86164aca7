// Device-side match queues.
//
// Section V: "While CPUs keep message and receive request queues separated
// from UMQ and PRQ, we unify them in our GPU implementation.  The UMQ is
// placed at the head of the message queue and the PRQ at the head of the
// receive request queue."  MatchQueue implements that unified layout: a
// contiguous buffer in (simulated) global memory whose head region holds
// the not-yet-matched elements, with new arrivals appended at the tail.
//
// Envelope lanes (struct-of-arrays).  The scan kernels read only (source,
// tag, comm) of each element ("Instead of reading the entire message or
// receive request, only src and tag are being read", Algorithm 1), so the
// queue keeps those fields mirrored in contiguous per-field lanes next to
// the element (payload) store: source[], tag[], comm[], stream[], and the
// packed (src << 32 | tag) scan word[] the warp ballot scan consumes.
// Sequence numbers live only in the element store (no kernel scans them);
// they are stamped per ordering domain — each stream owns an independent
// cursor (docs/streams.md) — so in-order release and posted-order
// tiebreaks hold within a stream only.  A
// probe over the lanes streams 8-byte words instead of striding over
// whole Message/RecvRequest structs, which is exactly the coalesced
// lane-wise layout the SIMT literature prescribes (docs/perf.md).  The
// lanes are maintained by every mutation (push, push_n, push_raw,
// compact, clear) and are therefore always in sync with the element
// store; accessors are const-only so no caller can desynchronize them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "matching/envelope.hpp"

namespace simtmsg::matching {

/// Const view over a queue's envelope lanes: one contiguous array per
/// envelope field, index-aligned with the element store (element i's
/// envelope is {src[i], tag[i], comm[i], stream[i]} with packed scan word
/// word[i] == scan_word(src[i], tag[i])).  Element i's sequence number is
/// read from the element store, queue[i].seq.
struct EnvelopeLanes {
  std::span<const Rank> src;
  std::span<const Tag> tag;
  std::span<const CommId> comm;
  std::span<const StreamId> stream;  ///< Ordering domain (docs/streams.md).
  std::span<const std::uint64_t> word;  ///< What the ballot scan reads.
};

template <typename T>
class MatchQueue {
 public:
  MatchQueue() = default;
  explicit MatchQueue(std::vector<T> initial) : items_(std::move(initial)) {
    rebuild_lanes();
  }

  /// Append a new arrival at the tail, stamping its sequence number from
  /// its stream's cursor.  Each ordering domain owns an independent
  /// sequence space (docs/streams.md): the default stream keeps the
  /// original scalar cursor, so stream-0-only traffic is stamped exactly
  /// as before streams existed.
  void push(T item) {
    item.seq = bump_seq(item.env.stream);
    append_lanes(item);
    items_.push_back(std::move(item));
  }

  /// Bulk append: one reserve + lane-wise sequence stamping for the whole
  /// batch.  Element and sequence-wise identical to pushing the items one
  /// at a time (tests/matching/batched_ingest_test.cpp pins this), but the
  /// per-call overhead is paid once per batch.
  void push_n(std::span<const T> items) {
    reserve_more(items.size());
    for (const T& it : items) {
      T copy = it;
      copy.seq = bump_seq(copy.env.stream);
      append_lanes(copy);
      items_.push_back(std::move(copy));
    }
  }

  /// Append preserving the item's existing sequence number.  The stamping
  /// cursor of the item's stream saturates at the maximum sequence instead
  /// of wrapping: a raw item carrying seq == 2^64-1 must not silently
  /// reset that stream's sequence space (seq + 1 would wrap to 0).
  void push_raw(T item) {
    advance_cursor(item.env.stream, item.seq);
    append_lanes(item);
    items_.push_back(std::move(item));
  }

  /// Bulk form of push_raw(): existing sequence numbers preserved, one
  /// reserve for the whole batch.
  void push_raw_n(std::span<const T> items) {
    reserve_more(items.size());
    for (const T& it : items) {
      advance_cursor(it.env.stream, it.seq);
      append_lanes(it);
      items_.push_back(it);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[i]; }

  /// Raw element storage — what the SIMT kernels see as "global memory".
  /// Const-only: mutating an element in place would desynchronize the
  /// envelope lanes (all mutation goes through push*/compact/clear).
  [[nodiscard]] std::span<const T> view() const noexcept { return items_; }

  /// The envelope lanes (struct-of-arrays mirror of view(), see above).
  [[nodiscard]] EnvelopeLanes lanes() const noexcept {
    return EnvelopeLanes{.src = src_, .tag = tag_, .comm = comm_, .stream = stream_,
                         .word = word_};
  }

  /// The packed (src << 32 | tag) scan-word lane — the exact array the
  /// matrix/hash scan kernels load.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return word_; }

  /// First `n` elements (the window an iteration works on).
  [[nodiscard]] std::span<const T> window(std::size_t n) const noexcept {
    return std::span<const T>(items_).subspan(0, std::min(n, items_.size()));
  }

  /// Remove the elements whose indices have `matched[i] != 0`, preserving
  /// the relative order of survivors (the paper's compaction step:
  /// "compact the queues to advance the head pointer").  Lane-wise: the
  /// element store and every envelope lane compact in one pass, so the
  /// lanes stay index-aligned.  Returns the number of removed elements.
  std::size_t compact(std::span<const std::uint8_t> matched) {
    std::size_t kept = 0;
    std::size_t removed = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const bool remove = i < matched.size() && matched[i] != 0;
      if (remove) {
        ++removed;
      } else {
        if (kept != i) {
          items_[kept] = std::move(items_[i]);
          src_[kept] = src_[i];
          tag_[kept] = tag_[i];
          comm_[kept] = comm_[i];
          stream_[kept] = stream_[i];
          word_[kept] = word_[i];
        }
        ++kept;
      }
    }
    items_.resize(kept);
    src_.resize(kept);
    tag_.resize(kept);
    comm_.resize(kept);
    stream_.resize(kept);
    word_.resize(kept);
    return removed;
  }

  void clear() noexcept {
    items_.clear();
    src_.clear();
    tag_.clear();
    comm_.clear();
    stream_.clear();
    word_.clear();
  }

 private:
  static constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();

  /// The cursor value that follows a raw element's sequence, saturating at
  /// kMaxSeq so the sequence space never wraps back to 0.
  [[nodiscard]] static constexpr std::uint64_t saturating_next(std::uint64_t seq) noexcept {
    return seq == kMaxSeq ? kMaxSeq : seq + 1;
  }

  /// The stamping cursor for one ordering domain.  The default stream uses
  /// the original scalar member (zero lookups, bit-identical stamping);
  /// other streams live in an ordered map keyed by stream id.
  [[nodiscard]] std::uint64_t& cursor(StreamId stream) {
    return stream == kDefaultStream ? next_seq_ : stream_seq_[stream];
  }

  /// Stamp-and-advance the stream's cursor, saturating at kMaxSeq (further
  /// stamps repeat it rather than wrapping — by then the ordering contract
  /// is void anyway).
  [[nodiscard]] std::uint64_t bump_seq(StreamId stream) {
    std::uint64_t& c = cursor(stream);
    const std::uint64_t s = c;
    c = saturating_next(c);
    return s;
  }

  /// Keep the stream's cursor ahead of a raw element's existing sequence.
  void advance_cursor(StreamId stream, std::uint64_t seq) {
    std::uint64_t& c = cursor(stream);
    c = std::max(c, saturating_next(seq));
  }

  void append_lanes(const T& item) {
    src_.push_back(item.env.src);
    tag_.push_back(item.env.tag);
    comm_.push_back(item.env.comm);
    stream_.push_back(item.env.stream);
    word_.push_back(scan_word(item.env.src, item.env.tag));
  }

  void reserve_more(std::size_t n) {
    const std::size_t total = items_.size() + n;
    items_.reserve(total);
    src_.reserve(total);
    tag_.reserve(total);
    comm_.reserve(total);
    stream_.reserve(total);
    word_.reserve(total);
  }

  void rebuild_lanes() {
    src_.clear();
    tag_.clear();
    comm_.clear();
    stream_.clear();
    word_.clear();
    reserve_more(0);
    for (const T& item : items_) append_lanes(item);
  }

  std::vector<T> items_;  ///< Element (payload) store; lanes mirror its envelopes.
  std::vector<Rank> src_;
  std::vector<Tag> tag_;
  std::vector<CommId> comm_;
  std::vector<StreamId> stream_;
  std::vector<std::uint64_t> word_;
  std::uint64_t next_seq_ = 0;  ///< Default-stream cursor (the hot path).
  /// Non-default stream cursors; empty until a stream is first seen, so
  /// stream-0-only queues never touch the map.
  std::map<StreamId, std::uint64_t> stream_seq_;
};

using MessageQueue = MatchQueue<Message>;
using RecvQueue = MatchQueue<RecvRequest>;

}  // namespace simtmsg::matching
