#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "harness.h"
#include "support/check.h"
#include "support/json.h"
#include "support/strings.h"

namespace perfbench {
namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  BFDN_REQUIRE(!sorted.empty(), "percentile of no samples");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

bool percentile_reportable(std::size_t samples, double q) {
  if (samples == 0) return false;
  return samples - nearest_rank(samples, q) >= 10;
}

double median(std::vector<double> values) {
  BFDN_REQUIRE(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<bool> quietest(const std::vector<double>& steal,
                           std::size_t keep) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::vector<bool> kept(steal.size(), false);
  for (std::size_t i = 0; i < std::min(keep, order.size()); ++i) {
    kept[order[i]] = true;
  }
  return kept;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

bool parse_proc_stat(std::string_view text, MachineTicks* out) {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  const std::size_t eol = text.find('\n');
  std::istringstream line(std::string(text.substr(0, eol)));
  std::string label;
  line >> label;
  if (label != "cpu") return false;
  std::uint64_t fields[8] = {};
  for (std::uint64_t& field : fields) {
    if (!(line >> field)) return false;
  }
  // guest time is already included in user time.
  out->total = 0;
  for (const std::uint64_t field : fields) out->total += field;
  out->steal = fields[7];
  return true;
}

bool parse_pid_cpu_ticks(std::string_view text, std::uint64_t* ticks) {
  // Fields after the parenthesised name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) return false;
  std::istringstream rest(std::string(text.substr(close + 1)));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int index = 3; index <= 15; ++index) {
    if (!(rest >> field)) return false;
    if (index == 14 || index == 15) {
      if (field.empty() ||
          !std::all_of(field.begin(), field.end(),
                       [](char c) { return c >= '0' && c <= '9'; })) {
        return false;
      }
      (index == 14 ? utime : stime) = std::stoull(field);
    }
  }
  *ticks = utime + stime;
  return true;
}

namespace {

/// What follows "Key:" on the line of `key` in a /proc/<pid>/status
/// document.
std::optional<std::string> status_value(std::string_view text,
                                        std::string_view key) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t eol = text.find('\n', start);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(start, eol - start);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      return std::string(line.substr(key.size() + 1));
    }
    start = eol + 1;
  }
  return std::nullopt;
}

}  // namespace

bool parse_status_kb(std::string_view text, std::string_view key,
                     std::int64_t* kb) {
  const std::optional<std::string> field = status_value(text, key);
  if (!field.has_value()) return false;
  std::istringstream value(*field);
  std::int64_t number = 0;
  std::string unit;
  if (!(value >> number >> unit) || unit != "kB") return false;
  *kb = number;
  return true;
}

bool parse_status_mask(std::string_view text, std::string_view key,
                       std::uint64_t* mask) {
  const std::optional<std::string> field = status_value(text, key);
  if (!field.has_value()) return false;
  std::istringstream value(*field);
  std::uint64_t bits = 0;
  if (!(value >> std::hex >> bits)) return false;
  *mask = bits;
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  BFDN_REQUIRE(valid_metric_name(name), "invalid metric name: " + name);
  for (const Entry& entry : entries_) {
    BFDN_REQUIRE(entry.name != name, "metric reported twice: " + name);
  }
  BFDN_REQUIRE(std::isfinite(value), "metric is not finite: " + name);
  entries_.push_back({name, value, unit});
}

double MetricSet::get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  BFDN_REQUIRE(false, "no metric named " + name);
  return 0;
}

std::string MetricSet::json() const {
  bfdn::JsonWriter w;
  w.begin_object();
  for (const Entry& entry : entries_) {
    w.key(entry.name).begin_object();
    // %.17g keeps every digit the measurement has.
    w.key("value").raw(bfdn::str_format("%.17g", entry.value));
    w.kv("unit", entry.unit);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace perfbench
