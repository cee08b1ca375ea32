// Ternary data types: the values a TCAM stores and searches.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::tcam {

/// A ternary digit: 0, 1, or don't-care.
enum class Trit : unsigned char { Zero = 0, One = 1, X = 2 };

/// One trit matches a search key trit unless both are definite and differ.
/// (A stored X matches anything; an X in the key matches every row — the
/// standard TCAM masked-search semantics.)
constexpr bool tritMatches(Trit stored, Trit key) {
    if (stored == Trit::X || key == Trit::X) return true;
    return stored == key;
}

/// Fixed-width ternary word.
class TernaryWord {
public:
    TernaryWord() = default;
    explicit TernaryWord(std::size_t bits, Trit fill = Trit::X) : trits_(bits, fill) {}

    /// Parse from a string of '0', '1', 'x'/'X'/'*'. Throws on other chars.
    static TernaryWord fromString(const std::string& s);

    /// All-definite word from the low `bits` of an integer (MSB first).
    static TernaryWord fromBits(unsigned long long value, std::size_t bits);

    std::string toString() const;

    std::size_t size() const { return trits_.size(); }
    bool empty() const { return trits_.empty(); }
    Trit& operator[](std::size_t i) { return trits_[i]; }
    Trit operator[](std::size_t i) const { return trits_[i]; }

    bool operator==(const TernaryWord&) const = default;

    /// Word-level match: every trit position matches. Throws on width
    /// mismatch — use the unchecked variant inside validated batch loops.
    bool matches(const TernaryWord& key) const;

    /// Number of definite-and-differing positions (drives ML discharge rate).
    /// Throws on width mismatch.
    std::size_t mismatchCount(const TernaryWord& key) const;

    /// matches() without the per-call width check: callers that validated
    /// the key width once per batch (QueryEngine, the match backends) call
    /// this inside the scan loop. Precondition: key.size() == size().
    bool matchesUnchecked(const TernaryWord& key) const noexcept;

    /// mismatchCount() without the per-call width check. Precondition:
    /// key.size() == size().
    std::size_t mismatchCountUnchecked(const TernaryWord& key) const noexcept;

    /// Number of don't-care positions.
    std::size_t wildcardCount() const;

    /// Number of definite (0/1) positions — the prefix length for LPM rules.
    std::size_t definiteCount() const { return size() - wildcardCount(); }

private:
    std::vector<Trit> trits_;
};

/// Byte-per-trit codec: one byte per position in word order, holding the
/// Trit value (0 = Zero, 1 = One, 2 = X). It is the key/word format of the
/// net protocol frames and of the persisted entry delta log.
void appendTritBytes(std::string& out, const TernaryWord& word);

/// Inverse of appendTritBytes: a bytes.size()-wide word, or nullopt when a
/// byte lies outside {0, 1, 2}.
std::optional<TernaryWord> wordFromTritBytes(std::string_view bytes);

}  // namespace fetcam::tcam
