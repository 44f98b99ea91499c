#pragma once
// Interchangeable rumor-set representations.
//
// Rumor-set protocols (core/) carry one subset of [0, n) per node and
// spend their time on three operations: union a delivered payload into
// the local set (or_assign_changed), snapshot the local set into an
// immutable payload block (assign_and_count / copy-assign), and test
// membership. A dense Bitset is ideal while n is small — every set is
// n/8 bytes regardless of content — but an n-node all-pairs layout
// costs n²/8 bytes, which walls the simulator at ~65k nodes (ROADMAP
// item 2).
//
// This header factors the representation into a compile-time concept,
// RumorSetRep, modeled by three interchangeable types:
//
//  * Bitset           (util/bitset.h) — the unchanged dense fast path.
//  * SparseRumorSet   — sorted u32 vector for broadcast-style workloads
//                       where |set| ≪ n (k rumors spreading through a
//                       large graph); promotes itself to dense past the
//                       break-even point so adversarial growth degrades
//                       to Bitset behavior instead of O(k) inserts.
//  * CountRumorSet    — dense membership plus a saturation collapse for
//                       all-to-all: once a set holds every rumor its
//                       words are freed and every union/capture against
//                       it is O(1). Membership below saturation stays
//                       exact — a count alone cannot reproduce union
//                       results, so this is "counting mode" in the
//                       sense that only |set| drives the observables
//                       and a full set needs no words.
//
// All three are observationally identical: the engine-vs-oracle
// differential harness (check/differential.cpp) runs the same case
// under every representation and requires bit-identical SimResults and
// event fingerprints (the cross-representation satellite of ROADMAP
// item 2). Protocols are templated over the representation
// (core/push_pull.h BasicPushPullGossip<R> etc.) with Bitset-typedefs
// preserving the historical names, so the dense instantiation inlines
// exactly as before.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitset.h"

namespace latgossip {

/// Compile-time contract every rumor-set representation satisfies.
/// Bitset models it natively; SparseRumorSet / CountRumorSet mirror the
/// subset of Bitset's API the protocols and the snapshot arena use.
template <typename R>
concept RumorSetRep =
    std::copyable<R> && requires(R r, const R& cr, std::size_t i) {
      R(i);                              // all-zero set over [0, i)
      r.reinit(i);                       // re-zero, possibly resizing
      r.clear();                         // re-zero in place
      r.set(i);                          // insert one element
      { cr.test(i) } -> std::convertible_to<bool>;
      { cr.size() } -> std::convertible_to<std::size_t>;
      { cr.count() } -> std::convertible_to<std::size_t>;
      { r.or_assign_changed(cr) } -> std::same_as<typename R::OrDelta>;
      { r.assign_and_count(cr) } -> std::convertible_to<std::size_t>;
      { cr == cr } -> std::convertible_to<bool>;
    };

/// The dense representation is the Bitset itself — zero adaptation, so
/// the historical protocol aliases instantiate to exactly the code that
/// shipped before this layer existed.
using DenseRumorSet = Bitset;

/// Sorted-vector sparse set over [0, size). Memory is 4 bytes per
/// element versus the dense 1 bit per node, so sparse wins while
/// |set| < size/32; once an instance grows past promote_threshold(size)
/// elements it promotes itself to a dense Bitset and stays dense until
/// the next reinit()/clear(). Promotion is per-instance: in a k-source
/// broadcast every set stays sparse forever, while a worst-case
/// all-to-all degrades to Bitset costs instead of O(|set|) insertion
/// churn.
///
/// Layout (56 bytes, DESIGN.md §5i): the first kInlineElems elements
/// live in the object, more spill into a heap vector, and the dense
/// Bitset sits behind a pointer allocated only on promotion. A sparse
/// set is what a snapshot block embeds and what every queued payload
/// points at, so an 80-byte inline Bitset that a sparse set never uses
/// would cost a cache line per block. Exactly one storage is live:
///   dense_ != nullptr         → *dense_ (count_ mirrors its popcount);
///   count_ <= kInlineElems    → inline_[0, count_);
///   otherwise                 → spill_ (size() == count_).
class SparseRumorSet {
 public:
  using OrDelta = Bitset::OrDelta;

  /// Elements held in the object before the set spills to the heap.
  static constexpr std::size_t kInlineElems = 4;

  SparseRumorSet() = default;
  explicit SparseRumorSet(std::size_t size) : size_(narrow(size)) {}

  SparseRumorSet(const SparseRumorSet& other)
      : size_(other.size_), count_(other.count_) {
    copy_storage(other);
  }
  SparseRumorSet(SparseRumorSet&& other) noexcept
      : size_(other.size_),
        count_(other.count_),
        spill_(std::move(other.spill_)),
        dense_(std::move(other.dense_)) {
    std::copy_n(other.inline_, kInlineElems, inline_);
    other.count_ = 0;
    other.spill_.clear();
  }
  /// Keeps this set's spill capacity and dense words when they fit (the
  /// snapshot arena overwrites pooled blocks with this).
  SparseRumorSet& operator=(const SparseRumorSet& other) {
    if (this == &other) return *this;
    size_ = other.size_;
    count_ = other.count_;
    copy_storage(other);
    return *this;
  }
  SparseRumorSet& operator=(SparseRumorSet&& other) noexcept {
    if (this == &other) return *this;
    size_ = other.size_;
    count_ = other.count_;
    std::copy_n(other.inline_, kInlineElems, inline_);
    spill_ = std::move(other.spill_);
    dense_ = std::move(other.dense_);
    other.count_ = 0;
    other.spill_.clear();
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Elements held before a sparse set of `size` promotes to dense
  /// (the 4-bytes-per-element vs size/8-bytes break-even, floored so
  /// tiny sets never bother promoting).
  static std::size_t promote_threshold(std::size_t size) noexcept {
    return std::max<std::size_t>(64, size / 32);
  }

  bool test(std::size_t i) const {
    check(i);
    if (dense_) return dense_->test(i);
    return std::ranges::binary_search(view(), static_cast<std::uint32_t>(i));
  }

  void set(std::size_t i) {
    check(i);
    if (dense_) {
      if (!dense_->test(i)) {
        dense_->set(i);
        ++count_;
      }
      return;
    }
    const auto v = static_cast<std::uint32_t>(i);
    const std::span<const std::uint32_t> elems = view();
    const auto it = std::ranges::lower_bound(elems, v);
    if (it != elems.end() && *it == v) return;
    const auto pos = static_cast<std::size_t>(it - elems.begin());
    if (count_ < kInlineElems) {
      std::copy_backward(inline_ + pos, inline_ + count_,
                         inline_ + count_ + 1);
      inline_[pos] = v;
    } else {
      if (count_ == kInlineElems) spill_.assign(inline_, inline_ + count_);
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos), v);
    }
    ++count_;
    maybe_promote();
  }

  void clear() noexcept {
    count_ = 0;
    spill_.clear();
    dense_.reset();
  }

  /// Re-zero under a (possibly different) universe size; drops back to
  /// sparse mode. Spill capacity is kept (workspace reuse).
  void reinit(std::size_t size) {
    clear();
    size_ = narrow(size);
  }

  std::size_t count() const noexcept { return count_; }

  bool all() const noexcept { return count_ == size_; }

  /// In-place union with exact change accounting — the observational
  /// contract matched against Bitset::or_assign_changed by the
  /// cross-representation differential sweep. Precondition: same size.
  /// Sparse ∪ sparse first counts the new elements, so a union of a
  /// subset (the common late-round case) returns without writing, and
  /// otherwise merges in place from the back: it allocates only when
  /// the result outgrows the spill capacity.
  OrDelta or_assign_changed(const SparseRumorSet& other) {
    check_same(other);
    if (other.count_ == 0) return OrDelta{};
    if (dense_) {
      if (other.dense_) {
        const OrDelta delta = dense_->or_assign_changed(*other.dense_);
        count_ += static_cast<std::uint32_t>(delta.added);
        return delta;
      }
      std::size_t added = 0;
      for (const std::uint32_t v : other.view()) {
        if (!dense_->test(v)) {
          dense_->set(v);
          ++added;
        }
      }
      count_ += static_cast<std::uint32_t>(added);
      return OrDelta{added > 0, added};
    }
    if (other.dense_) {
      promote();
      return or_assign_changed(other);
    }
    const std::span<const std::uint32_t> theirs = other.view();
    const std::uint32_t* const b = theirs.data();
    const std::size_t m = theirs.size();
    const std::size_t added = count_new(theirs);
    if (added == 0) return OrDelta{};
    const std::size_t n = count_;
    const std::size_t total = n + added;
    if (total > kInlineElems) {
      if (n <= kInlineElems) spill_.assign(inline_, inline_ + n);
      spill_.resize(total);
    }
    // Backward merge: the destination's unread prefix [0, i) never
    // overlaps the write cursor k, since k - i counts the b elements
    // still to place.
    std::uint32_t* const dst = total > kInlineElems ? spill_.data() : inline_;
    std::size_t i = n, j = m, k = total;
    while (j > 0) {
      if (i > 0 && dst[i - 1] >= b[j - 1]) {
        if (dst[i - 1] == b[j - 1]) --j;
        dst[--k] = dst[--i];
      } else {
        dst[--k] = b[--j];
      }
    }
    count_ = static_cast<std::uint32_t>(total);
    maybe_promote();
    return OrDelta{true, added};
  }

  /// Overwrite this with `other` and return `other`'s cardinality (the
  /// snapshot arena's fused copy+count, see util/snapshot.h).
  std::size_t assign_and_count(const SparseRumorSet& other) {
    *this = other;
    return count_;
  }

  bool operator==(const SparseRumorSet& other) const {
    if (size_ != other.size_ || count_ != other.count_) return false;
    if (dense_ && other.dense_) return *dense_ == *other.dense_;
    // Mixed-mode compare: membership, not layout, defines equality.
    const SparseRumorSet& sparse = dense_ ? other : *this;
    const SparseRumorSet& any = dense_ ? *this : other;
    for (const std::uint32_t v : sparse.view())
      if (!any.test(v)) return false;
    return true;
  }

  /// Indices of all elements, ascending (tests / debugging).
  std::vector<std::size_t> to_indices() const {
    if (dense_) return dense_->to_indices();
    const std::span<const std::uint32_t> elems = view();
    return {elems.begin(), elems.end()};
  }

  /// True while the instance is still in sorted-vector mode.
  bool is_sparse() const noexcept { return !dense_; }
  /// True while a sparse instance still holds its elements inline.
  bool is_inline() const noexcept { return !dense_ && count_ <= kInlineElems; }

 private:
  static std::uint32_t narrow(std::size_t size) {
    if (size > UINT32_MAX)
      throw std::length_error("SparseRumorSet universe exceeds 2^32 - 1");
    return static_cast<std::uint32_t>(size);
  }
  void check(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("SparseRumorSet index out of range");
  }
  void check_same(const SparseRumorSet& other) const {
    if (size_ != other.size_)
      throw std::invalid_argument("SparseRumorSet size mismatch");
  }

  /// Sorted elements of a sparse-mode set.
  std::span<const std::uint32_t> view() const noexcept {
    return {count_ <= kInlineElems ? inline_ : spill_.data(), count_};
  }

  /// How many of the sorted `theirs` this sparse-mode set lacks.
  std::size_t count_new(std::span<const std::uint32_t> theirs) const noexcept {
    const std::span<const std::uint32_t> mine = view();
    auto a = mine.begin();
    std::size_t missing = 0;
    for (const std::uint32_t v : theirs) {
      while (a != mine.end() && *a < v) ++a;
      if (a == mine.end() || *a != v) ++missing;
    }
    return missing;
  }

  /// Copy other's live storage; size_ and count_ are already other's.
  void copy_storage(const SparseRumorSet& other) {
    if (other.dense_) {
      if (dense_)
        *dense_ = *other.dense_;
      else
        dense_ = std::make_unique<Bitset>(*other.dense_);
      spill_.clear();
      return;
    }
    dense_.reset();
    if (count_ <= kInlineElems) {
      std::copy_n(other.inline_, count_, inline_);
      spill_.clear();
    } else {
      spill_.assign(other.spill_.begin(), other.spill_.end());
    }
  }

  void maybe_promote() {
    if (count_ > promote_threshold(size_)) promote();
  }

  void promote() {
    auto bits = std::make_unique<Bitset>(size_);
    for (const std::uint32_t v : view()) bits->set(v);
    dense_ = std::move(bits);
    spill_.clear();
  }

  std::uint32_t size_ = 0;
  std::uint32_t count_ = 0;               ///< cardinality in every mode
  std::uint32_t inline_[kInlineElems]{};  ///< sorted; live while inline
  std::vector<std::uint32_t> spill_;      ///< sorted; live while spilled
  std::unique_ptr<Bitset> dense_;         ///< live once promoted
};

static_assert(sizeof(SparseRumorSet) == 56);

/// Dense membership with a cached cardinality and a saturation
/// collapse. Below saturation this is a Bitset plus a count; the moment
/// a set holds all `size` elements its words are released and every
/// subsequent operation answers from the count alone — unions into or
/// from a full set are O(1), and snapshot captures of a full set copy
/// no words. In the late phase of an all-to-all run, where almost every
/// delivery lands on an already-complete node, that converts the O(n/64)
/// per-delivery union walk into a flag test.
class CountRumorSet {
 public:
  using OrDelta = Bitset::OrDelta;

  CountRumorSet() = default;
  explicit CountRumorSet(std::size_t size)
      : size_(size), bits_(size), full_(size == 0) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool test(std::size_t i) const {
    check(i);
    return full_ || bits_.test(i);
  }

  void set(std::size_t i) {
    check(i);
    if (full_) return;
    if (!bits_.test(i)) {
      bits_.set(i);
      ++count_;
      maybe_saturate();
    }
  }

  void clear() {
    full_ = size_ == 0;
    count_ = 0;
    bits_.reinit(size_);
  }

  void reinit(std::size_t size) {
    size_ = size;
    clear();
  }

  std::size_t count() const noexcept { return full_ ? size_ : count_; }
  bool all() const noexcept { return full_; }

  OrDelta or_assign_changed(const CountRumorSet& other) {
    check_same(other);
    if (full_) return OrDelta{};
    if (other.full_) {
      // Everything missing arrives at once; the receiver saturates.
      const std::size_t added = size_ - count_;
      saturate();
      return OrDelta{added > 0, added};
    }
    const OrDelta delta = bits_.or_assign_changed(other.bits_);
    count_ += delta.added;
    maybe_saturate();
    return delta;
  }

  std::size_t assign_and_count(const CountRumorSet& other) {
    *this = other;
    return count();
  }

  bool operator==(const CountRumorSet& other) const {
    if (size_ != other.size_ || count() != other.count()) return false;
    if (full_ || other.full_) return true;  // equal full counts
    return bits_ == other.bits_;
  }

  std::vector<std::size_t> to_indices() const {
    if (!full_) return bits_.to_indices();
    std::vector<std::size_t> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = i;
    return out;
  }

  /// True once the saturation collapse fired (words released).
  bool saturated() const noexcept { return full_; }

 private:
  void check(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("CountRumorSet index out of range");
  }
  void check_same(const CountRumorSet& other) const {
    if (size_ != other.size_)
      throw std::invalid_argument("CountRumorSet size mismatch");
  }
  void maybe_saturate() {
    if (count_ == size_) saturate();
  }
  void saturate() {
    full_ = true;
    count_ = 0;
    bits_ = Bitset();  // release the words; membership is implied
  }

  std::size_t size_ = 0;
  Bitset bits_;            ///< valid when !full_
  std::size_t count_ = 0;  ///< popcount mirror when !full_
  bool full_ = false;
};

static_assert(RumorSetRep<Bitset>);
static_assert(RumorSetRep<SparseRumorSet>);
static_assert(RumorSetRep<CountRumorSet>);

/// Starting rumor sets where each node knows exactly its own id — the
/// representation-generic twin of the protocols' own_id_rumors().
template <RumorSetRep R>
std::vector<R> own_id_rumor_sets(std::size_t n) {
  std::vector<R> r(n, R(n));
  for (std::size_t u = 0; u < n; ++u) r[u].set(u);
  return r;
}

/// Warm the representation's storage ahead of a union into it (the
/// engine's prefetch-ahead, sim/engine.h). A Bitset warms its first two
/// word lines; representations without a flat word array warm the set
/// object itself, which holds a sparse set's inline elements and the
/// header every union reads.
template <typename R>
inline void prefetch_rumor_set(const R& r) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  if constexpr (requires { r.words(); }) {
    const auto w = r.words();
    __builtin_prefetch(w.data(), /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(reinterpret_cast<const char*>(w.data()) + 64, 1, 1);
  } else {
    __builtin_prefetch(&r, /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(reinterpret_cast<const char*>(&r) + sizeof(R) - 1, 1,
                       1);
  }
#else
  (void)r;
#endif
}

// ---------------------------------------------------------------------------
// Runtime representation selection.

/// Which rumor-set representation a run should instantiate. kAuto picks
/// dense below kDenseNodeThreshold nodes and sparse at or above it.
enum class RumorRep : std::uint8_t { kDense, kSparse, kCount, kAuto };

/// Auto-selection crossover. Below this node count a dense rumor set is
/// at most 8 KiB (n/8 bytes) and word-parallel unions beat any sparse
/// structure; above it an all-dense layout costs more than n²/8 ≈ 512
/// MiB across nodes and sparse wins whenever |set| ≪ n (the million-
/// node broadcast regime). 65536 matches the largest topology the dense
/// path was ever benched at (DESIGN.md §5i).
inline constexpr std::size_t kDenseNodeThreshold = 65536;

constexpr std::string_view rumor_rep_name(RumorRep rep) noexcept {
  switch (rep) {
    case RumorRep::kDense: return "dense";
    case RumorRep::kSparse: return "sparse";
    case RumorRep::kCount: return "count";
    case RumorRep::kAuto: return "auto";
  }
  return "?";
}

/// Parse a --rumor-rep flag value; throws on unknown names.
inline RumorRep parse_rumor_rep(std::string_view name) {
  if (name == "dense") return RumorRep::kDense;
  if (name == "sparse") return RumorRep::kSparse;
  if (name == "count") return RumorRep::kCount;
  if (name == "auto") return RumorRep::kAuto;
  throw std::invalid_argument("unknown rumor representation: " +
                              std::string(name));
}

/// Resolve kAuto against a concrete node count; concrete choices pass
/// through unchanged.
constexpr RumorRep resolve_rumor_rep(RumorRep rep, std::size_t num_nodes) {
  if (rep != RumorRep::kAuto) return rep;
  return num_nodes < kDenseNodeThreshold ? RumorRep::kDense
                                         : RumorRep::kSparse;
}

/// Invoke `fn` with the representation type selected by `rep` (kAuto
/// resolved against `num_nodes`): fn.template operator()<R>() — the
/// runtime-flag-to-compile-time-type bridge used by the CLI and the
/// cross-representation differential harness.
template <typename Fn>
decltype(auto) with_rumor_rep(RumorRep rep, std::size_t num_nodes, Fn&& fn) {
  switch (resolve_rumor_rep(rep, num_nodes)) {
    case RumorRep::kSparse:
      return fn.template operator()<SparseRumorSet>();
    case RumorRep::kCount:
      return fn.template operator()<CountRumorSet>();
    case RumorRep::kDense:
    case RumorRep::kAuto:
      break;
  }
  return fn.template operator()<Bitset>();
}

}  // namespace latgossip
