// Shared helpers of the service benchmark: clocks, sample sets with the
// percentile rule, reply hashing, and a flat JSON writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Samples beyond the q-quantile: the percentile rule asks for at least
/// ten of them before a tail percentile is reported.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// Steal share up to which a bin counts as quiet.
constexpr double kQuietSteal = 0.01;

/// The bins (see StealClock) to count a metric over: every quiet bin, and
/// when those hold less than a quarter of `weight` (the metric's share of
/// the run by bin) or less than `min_weight`, the next least stolen until
/// they do (`bin_steal` by bin; a bin past its end counts as the most
/// stolen). Steal is CPU time the host gave to other machines, whose
/// bursts no program change can cause, and it moves short requests' tails
/// several-fold; a quiet run keeps every sample.
inline std::vector<bool> CalmBins(const std::vector<double>& weight,
                                  const std::vector<double>& bin_steal,
                                  double min_weight) {
  std::vector<std::size_t> order;
  double total = 0;
  for (std::size_t b = 0; b < weight.size(); ++b) {
    if (weight[b] > 0) order.push_back(b);
    total += weight[b];
  }
  auto steal = [&](std::size_t b) {
    return b < bin_steal.size() ? bin_steal[b] : 1e300;
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal(a) < steal(b);
  });
  std::vector<bool> keep(weight.size(), false);
  const double want = std::max(total / 4, min_weight);
  double kept = 0;
  for (std::size_t b : order) {
    if (kept >= want && steal(b) > kQuietSteal) break;
    keep[b] = true;
    kept += weight[b];
  }
  return keep;
}

/// Samples tagged with the bin — the short interval of the run — they
/// completed in. Six bytes a sample: a closed loop records a sample per
/// request, and wider samples made the process's peak RSS follow the
/// request rate (about 20 MB more at 60k reads/s over 20 s).
struct Series {
  std::vector<float> values;
  std::vector<std::uint16_t> bins;

  void Add(double value, int bin) {
    values.push_back(static_cast<float>(value));
    bins.push_back(static_cast<std::uint16_t>(std::clamp(bin, 0, 65535)));
  }
  void Append(const Series& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
    bins.insert(bins.end(), other.bins.begin(), other.bins.end());
  }
  std::size_t size() const { return values.size(); }
  std::vector<double> All() const {
    return std::vector<double>(values.begin(), values.end());
  }

  /// The samples of the calm bins (see CalmBins), at least enough of them
  /// to have ten beyond the q-quantile.
  std::vector<double> Calm(const std::vector<double>& bin_steal,
                           double q) const {
    std::vector<double> count;
    for (std::uint16_t b : bins) {
      const std::size_t i = static_cast<std::size_t>(b);
      if (i >= count.size()) count.resize(i + 1, 0);
      count[i] += 1;
    }
    const std::vector<bool> keep =
        CalmBins(count, bin_steal, std::ceil(10 / (1 - q)));
    std::vector<double> out;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (keep[static_cast<std::size_t>(bins[i])]) out.push_back(values[i]);
    }
    return out;
  }
};

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// 64-bit FNV-1a: expected replies are kept as hashes, not strings.
inline std::uint64_t HashReply(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Insertion-ordered JSON object of numbers, strings and raw fragments —
/// enough for the result line and the detail lines before it.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.10g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, std::string_view value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.ToString());
  }
  JsonObject& Raw(const std::string& key, const std::string& fragment) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"' + key + "\": " + fragment;
    return *this;
  }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
