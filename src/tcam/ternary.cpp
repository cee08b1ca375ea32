#include "tcam/ternary.hpp"

#include <stdexcept>

namespace fetcam::tcam {

TernaryWord TernaryWord::fromString(const std::string& s) {
    TernaryWord w(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        switch (s[i]) {
            case '0': w.trits_[i] = Trit::Zero; break;
            case '1': w.trits_[i] = Trit::One; break;
            case 'x':
            case 'X':
            case '*': w.trits_[i] = Trit::X; break;
            default:
                throw std::invalid_argument("TernaryWord::fromString: bad char '" +
                                            std::string(1, s[i]) + "'");
        }
    }
    return w;
}

TernaryWord TernaryWord::fromBits(unsigned long long value, std::size_t bits) {
    TernaryWord w(bits);
    for (std::size_t i = 0; i < bits; ++i) {
        const bool bit = (value >> (bits - 1 - i)) & 1ULL;
        w.trits_[i] = bit ? Trit::One : Trit::Zero;
    }
    return w;
}

std::string TernaryWord::toString() const {
    std::string s(trits_.size(), '?');
    for (std::size_t i = 0; i < trits_.size(); ++i) {
        switch (trits_[i]) {
            case Trit::Zero: s[i] = '0'; break;
            case Trit::One: s[i] = '1'; break;
            case Trit::X: s[i] = 'X'; break;
        }
    }
    return s;
}

bool TernaryWord::matches(const TernaryWord& key) const {
    if (key.size() != size())
        throw std::invalid_argument("TernaryWord::matches: width mismatch");
    return matchesUnchecked(key);
}

std::size_t TernaryWord::mismatchCount(const TernaryWord& key) const {
    if (key.size() != size())
        throw std::invalid_argument("TernaryWord::mismatchCount: width mismatch");
    return mismatchCountUnchecked(key);
}

bool TernaryWord::matchesUnchecked(const TernaryWord& key) const noexcept {
    for (std::size_t i = 0; i < trits_.size(); ++i)
        if (!tritMatches(trits_[i], key.trits_[i])) return false;
    return true;
}

std::size_t TernaryWord::mismatchCountUnchecked(const TernaryWord& key) const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < trits_.size(); ++i)
        if (!tritMatches(trits_[i], key.trits_[i])) ++n;
    return n;
}

std::size_t TernaryWord::wildcardCount() const {
    std::size_t n = 0;
    for (const Trit t : trits_)
        if (t == Trit::X) ++n;
    return n;
}

void appendTritBytes(std::string& out, const TernaryWord& word) {
    for (std::size_t i = 0; i < word.size(); ++i) out.push_back(static_cast<char>(word[i]));
}

std::optional<TernaryWord> wordFromTritBytes(std::string_view bytes) {
    TernaryWord word(bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const auto b = static_cast<unsigned char>(bytes[i]);
        if (b > static_cast<unsigned char>(Trit::X)) return std::nullopt;
        word[i] = static_cast<Trit>(b);
    }
    return word;
}

}  // namespace fetcam::tcam
