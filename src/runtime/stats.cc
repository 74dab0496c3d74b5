#include "runtime/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace lahar {
namespace {

// Index of the power-of-two bucket holding `ns` (0 for ns <= 1).
size_t BucketOf(uint64_t ns) {
  size_t b = 0;
  while (ns > 1) {
    ns >>= 1;
    ++b;
  }
  return b;
}

// Geometric midpoint of bucket b, in nanoseconds.
double BucketMid(size_t b) {
  return std::sqrt(static_cast<double>(1ULL << b) *
                   static_cast<double>(b + 1 < 64 ? (1ULL << (b + 1)) : ~0ULL));
}

// Which renderer handles a field: scalars and strings print as values,
// vectors as lists, and everything else is a struct with a Fields list.
template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
constexpr bool kIsPair = false;
template <typename K, typename V>
constexpr bool kIsPair<std::pair<K, V>> = true;
template <typename T>
constexpr bool kIsStruct = !std::is_arithmetic_v<T> &&
                           !std::is_same_v<T, std::string> &&
                           !kIsVector<T> && !kIsPair<T>;

// Lists whose entries carry a name render as objects keyed by it: (name,
// value) pairs, and tenant counters keyed by tenant.
template <typename V>
std::pair<const std::string&, const V&> Entry(
    const std::pair<std::string, V>& e) {
  return {e.first, e.second};
}
std::pair<const std::string&, const NetTenantStats&> Entry(
    const NetTenantStats& t) {
  return {t.tenant, t};
}
template <typename T>
constexpr bool kIsKeyed = false;
template <typename E>
constexpr bool kIsKeyed<std::vector<E>> =
    requires(const E& e) { Entry(e); };

// The text dump gives structs, and list entries that are structs, their
// own lines.
template <typename T>
constexpr bool kHasOwnLine = kIsStruct<T>;
template <typename K, typename V>
constexpr bool kHasOwnLine<std::pair<K, V>> = kIsStruct<V>;
template <typename E>
constexpr bool kHasOwnLine<std::vector<E>> = kHasOwnLine<E>;

// Zero numbers, empty strings and lists, and structs whose fields are all
// zero; the text dump leaves these out.
template <typename T>
bool IsZero(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return v == T{};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.empty();
  } else if constexpr (kIsVector<T>) {
    return std::all_of(v.begin(), v.end(),
                       [](const auto& e) { return IsZero(e); });
  } else if constexpr (kIsPair<T>) {
    return IsZero(v.second);
  } else {
    bool zero = true;
    T::Fields([&](const char*, auto member) {
      zero = zero && IsZero(v.*member);
    });
    return zero;
  }
}

void AppendString(std::string* out, std::string_view s) {
  *out += '"';
  *out += JsonEscape(s);
  *out += '"';
}

void AppendJson(std::string* out, const auto& v) {
  using T = std::decay_t<decltype(v)>;
  if constexpr (std::is_same_v<T, bool>) {
    *out += v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    *out += std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    const int n = std::snprintf(nullptr, 0, "%.3f", v);
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);
    std::snprintf(out->data() + at, static_cast<size_t>(n) + 1, "%.3f", v);
    out->pop_back();  // snprintf's terminator
  } else if constexpr (std::is_same_v<T, std::string>) {
    AppendString(out, v);
  } else if constexpr (kIsKeyed<T>) {
    *out += '{';
    for (const auto& e : v) {
      if (out->back() != '{') *out += ',';
      const auto& [name, value] = Entry(e);
      AppendString(out, name);
      *out += ':';
      AppendJson(out, value);
    }
    *out += '}';
  } else if constexpr (kIsVector<T>) {
    *out += '[';
    for (const auto& e : v) {
      if (out->back() != '[') *out += ',';
      AppendJson(out, e);
    }
    *out += ']';
  } else {
    *out += '{';
    T::Fields([&](const char* key, auto member) {
      if (out->back() != '{') *out += ',';
      AppendString(out, key);
      *out += ':';
      AppendJson(out, v.*member);
    });
    *out += '}';
  }
}

// One line `label: key=value ...` for the struct's nonzero inline fields
// (values rendered as in JSON), then one indented line per nonzero nested
// struct, list entry or keyed entry.
template <typename T>
void AppendText(std::string* out, size_t indent, const std::string& label,
                const T& v) {
  out->append(indent, ' ');
  *out += label + ":";
  T::Fields([&](const char* key, auto member) {
    const auto& field = v.*member;
    if (kHasOwnLine<std::decay_t<decltype(field)>> || IsZero(field)) return;
    *out += ' ';
    *out += key;
    *out += '=';
    AppendJson(out, field);
  });
  *out += '\n';
  T::Fields([&](const char* key, auto member) {
    const auto& field = v.*member;
    using F = std::decay_t<decltype(field)>;
    if constexpr (!kHasOwnLine<F>) {
      return;
    } else if constexpr (kIsKeyed<F>) {
      for (const auto& e : field) {
        const auto& [name, value] = Entry(e);
        if (IsZero(value)) continue;
        std::string entry_label = std::string(key) + " ";
        AppendString(&entry_label, name);
        AppendText(out, indent + 2, entry_label, value);
      }
    } else if constexpr (kIsVector<F>) {
      for (size_t i = 0; i < field.size(); ++i) {
        AppendText(out, indent + 2,
                   std::string(key) + "[" + std::to_string(i) + "]",
                   field[i]);
      }
    } else if (!IsZero(field)) {
      AppendText(out, indent + 2, key, field);
    }
  });
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void LatencyRecorder::Record(uint64_t ns) {
  ++counts_[std::min(BucketOf(ns), kBuckets - 1)];
  ++count_;
  min_ns_ = std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
  sum_ns_ += static_cast<double>(ns);
}

LatencySummary LatencyRecorder::Summarize() const {
  LatencySummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.min_us = static_cast<double>(min_ns_) / 1000.0;
  s.max_us = static_cast<double>(max_ns_) / 1000.0;
  s.mean_us = sum_ns_ / static_cast<double>(count_) / 1000.0;
  auto percentile = [&](double p) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        // Clamp the histogram estimate into the observed range.
        return std::min(static_cast<double>(max_ns_),
                        std::max(static_cast<double>(min_ns_),
                                 BucketMid(b))) /
               1000.0;
      }
    }
    return s.max_us;
  };
  s.p50_us = percentile(0.50);
  s.p99_us = percentile(0.99);
  return s;
}

void LatencyRecorder::Reset() { *this = LatencyRecorder(); }

std::string RuntimeStats::ToString() const {
  std::string out;
  AppendText(&out, 0, "runtime", *this);
  return out;
}

std::string RuntimeStats::ToJson() const {
  std::string out;
  AppendJson(&out, *this);
  return out;
}

}  // namespace lahar
