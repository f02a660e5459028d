// Word-packed bit sets for the dataflow fixpoint engine.
//
// All dataflow state (reaching-def sets, live-reg sets, taint sets) is stored
// as 64-bit words so the transfer functions run word-at-a-time instead of
// bit-at-a-time: UnionWith/IntersectWith/SubtractWith fold a whole row in
// bits/64 operations and report whether anything changed, which is exactly
// the signal the priority worklist needs to decide whether dependents must
// be revisited. BitMatrix packs all rows of one analysis into a single flat
// arena (one allocation per analysis instead of one per block), and rows are
// handed out as non-owning spans.
//
// None of these types are thread-safe; each analysis owns its state and the
// parallel runtime shards work at whole-function granularity.
#ifndef SRC_SUPPORT_BITSET_H_
#define SRC_SUPPORT_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace support {

namespace bitset_detail {

inline constexpr size_t kWordBits = 64;

inline constexpr size_t WordsFor(size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// Mask selecting the valid bits of the final word (all-ones when the width is
// a multiple of 64). Keeping trailing bits zero is an invariant of every
// mutator below, so equality and popcount can stay whole-word.
inline constexpr uint64_t TailMask(size_t bits) {
  const size_t rem = bits % kWordBits;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

}  // namespace bitset_detail

// Read-only view of a packed bit row.
class ConstBitSpan {
 public:
  ConstBitSpan() = default;
  ConstBitSpan(const uint64_t* words, size_t bits) : words_(words), bits_(bits) {}

  size_t size() const { return bits_; }
  size_t num_words() const { return bitset_detail::WordsFor(bits_); }
  const uint64_t* words() const { return words_; }

  bool Test(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & uint64_t{1};
  }

  size_t Count() const {
    size_t total = 0;
    for (size_t w = 0; w < num_words(); ++w) {
      total += static_cast<size_t>(std::popcount(words_[w]));
    }
    return total;
  }

  bool None() const {
    for (size_t w = 0; w < num_words(); ++w) {
      if (words_[w] != 0) {
        return false;
      }
    }
    return true;
  }

  // Calls `fn(index)` for every set bit in ascending order, skipping zero
  // words entirely.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < num_words(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  friend bool operator==(const ConstBitSpan& a, const ConstBitSpan& b) {
    if (a.bits_ != b.bits_) {
      return false;
    }
    return a.num_words() == 0 ||
           std::memcmp(a.words_, b.words_, a.num_words() * sizeof(uint64_t)) == 0;
  }

 private:
  const uint64_t* words_ = nullptr;
  size_t bits_ = 0;
};

// Mutable view of a packed bit row. All binary operations require both sides
// to have the same width.
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(uint64_t* words, size_t bits) : words_(words), bits_(bits) {}

  operator ConstBitSpan() const { return ConstBitSpan(words_, bits_); }

  size_t size() const { return bits_; }
  size_t num_words() const { return bitset_detail::WordsFor(bits_); }
  const uint64_t* words() const { return words_; }
  uint64_t* words() { return words_; }

  bool Test(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & uint64_t{1};
  }
  void Set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  void Reset(size_t i) { words_[i / 64] &= ~(uint64_t{1} << (i % 64)); }

  // A zero-width span may hold null words; memset/memcpy must not see them.
  void ClearAll() {
    if (num_words() != 0) {
      std::memset(words_, 0, num_words() * sizeof(uint64_t));
    }
  }

  void CopyFrom(ConstBitSpan src) {
    if (num_words() != 0) {
      std::memcpy(words_, src.words(), num_words() * sizeof(uint64_t));
    }
  }

  // dst |= src; returns true if dst changed.
  bool UnionWith(ConstBitSpan src) {
    uint64_t changed = 0;
    const uint64_t* s = src.words();
    for (size_t w = 0; w < num_words(); ++w) {
      const uint64_t merged = words_[w] | s[w];
      changed |= merged ^ words_[w];
      words_[w] = merged;
    }
    return changed != 0;
  }

  // dst &= src; returns true if dst changed.
  bool IntersectWith(ConstBitSpan src) {
    uint64_t changed = 0;
    const uint64_t* s = src.words();
    for (size_t w = 0; w < num_words(); ++w) {
      const uint64_t merged = words_[w] & s[w];
      changed |= merged ^ words_[w];
      words_[w] = merged;
    }
    return changed != 0;
  }

  // dst &= ~src; returns true if dst changed.
  bool SubtractWith(ConstBitSpan src) {
    uint64_t changed = 0;
    const uint64_t* s = src.words();
    for (size_t w = 0; w < num_words(); ++w) {
      const uint64_t merged = words_[w] & ~s[w];
      changed |= merged ^ words_[w];
      words_[w] = merged;
    }
    return changed != 0;
  }

  // dst = (base \ kill) | gen in one pass; returns true if dst changed.
  bool AssignTransfer(ConstBitSpan base, ConstBitSpan kill, ConstBitSpan gen) {
    uint64_t changed = 0;
    const uint64_t* b = base.words();
    const uint64_t* k = kill.words();
    const uint64_t* g = gen.words();
    for (size_t w = 0; w < num_words(); ++w) {
      const uint64_t merged = (b[w] & ~k[w]) | g[w];
      changed |= merged ^ words_[w];
      words_[w] = merged;
    }
    return changed != 0;
  }

  // dst = src; returns true if dst changed.
  bool AssignFrom(ConstBitSpan src) {
    uint64_t changed = 0;
    const uint64_t* s = src.words();
    for (size_t w = 0; w < num_words(); ++w) {
      changed |= words_[w] ^ s[w];
      words_[w] = s[w];
    }
    return changed != 0;
  }

  size_t Count() const { return ConstBitSpan(*this).Count(); }
  bool None() const { return ConstBitSpan(*this).None(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ConstBitSpan(*this).ForEach(fn);
  }

  friend bool operator==(const BitSpan& a, const BitSpan& b) {
    return ConstBitSpan(a) == ConstBitSpan(b);
  }

 private:
  uint64_t* words_ = nullptr;
  size_t bits_ = 0;
};

// Owning bit set (a single row).
class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(size_t bits)
      : words_(bitset_detail::WordsFor(bits), 0), bits_(bits) {}

  void Resize(size_t bits) {
    words_.assign(bitset_detail::WordsFor(bits), 0);
    bits_ = bits;
  }

  size_t size() const { return bits_; }
  BitSpan Span() { return BitSpan(words_.data(), bits_); }
  ConstBitSpan Span() const { return ConstBitSpan(words_.data(), bits_); }
  operator BitSpan() { return Span(); }
  operator ConstBitSpan() const { return Span(); }

  bool Test(size_t i) const { return Span().Test(i); }
  void Set(size_t i) { Span().Set(i); }
  void Reset(size_t i) { Span().Reset(i); }
  void ClearAll() { Span().ClearAll(); }
  size_t Count() const { return Span().Count(); }
  bool None() const { return Span().None(); }
  bool UnionWith(ConstBitSpan src) { return Span().UnionWith(src); }
  bool IntersectWith(ConstBitSpan src) { return Span().IntersectWith(src); }
  bool SubtractWith(ConstBitSpan src) { return Span().SubtractWith(src); }
  bool AssignFrom(ConstBitSpan src) { return Span().AssignFrom(src); }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Span().ForEach(fn);
  }

  friend bool operator==(const BitSet& a, const BitSet& b) {
    return a.Span() == b.Span();
  }

 private:
  std::vector<uint64_t> words_;
  size_t bits_ = 0;
};

// rows × bits matrix backed by one flat word arena. Rows are 64-bit aligned
// so every row operation is pure word arithmetic.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t bits)
      : words_(rows * bitset_detail::WordsFor(bits), 0),
        rows_(rows),
        bits_(bits),
        stride_(bitset_detail::WordsFor(bits)) {}

  size_t rows() const { return rows_; }
  size_t bits() const { return bits_; }

  BitSpan Row(size_t r) { return BitSpan(words_.data() + r * stride_, bits_); }
  ConstBitSpan Row(size_t r) const {
    return ConstBitSpan(words_.data() + r * stride_, bits_);
  }

 private:
  std::vector<uint64_t> words_;
  size_t rows_ = 0;
  size_t bits_ = 0;
  size_t stride_ = 0;
};

}  // namespace support

#endif  // SRC_SUPPORT_BITSET_H_
