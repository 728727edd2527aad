#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_set>

namespace e2e {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

namespace {

struct Dimension {
  const char* name;
  size_t cardinality;
  double zipf_exponent;
};

// Cardinalities and skews of a retail fact table; the value prefix is the
// column name's first two letters (all distinct).
constexpr Dimension kDimensions[] = {
    {"channel", 4, 1.2},  {"region", 6, 0.9}, {"tier", 3, 1.0},
    {"product", 12, 1.1}, {"device", 5, 1.3}, {"week", 16, 0.7},
    {"store", 24, 1.0},   {"campaign", 40, 1.2},
};
constexpr double kCorrelation = 0.6;
constexpr int64_t kMaxAmount = 100;

std::string ValueOf(const std::string& column, uint8_t code) {
  return column.substr(0, 2) + std::to_string(code);
}

bool HasStar(const Node& node) {
  return std::find(node.cells.begin(), node.cells.end(), "?") !=
         node.cells.end();
}

// --- Response scanning ---------------------------------------------------
// The codec writes keys in a fixed order and the benchmark's cell values
// never need escaping, so a forward scan over expected keys suffices.

bool Seek(std::string_view s, std::string_view key, size_t* pos) {
  size_t at = s.find(key, *pos);
  if (at == std::string_view::npos) return false;
  *pos = at + key.size();
  return true;
}

bool ReadQuoted(std::string_view s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  size_t end = *pos + 1;
  while (end < s.size() && s[end] != '"') {
    if (s[end] == '\\') ++end;
    ++end;
  }
  if (end >= s.size()) return false;
  out->assign(s.substr(*pos + 1, end - *pos - 1));
  *pos = end + 1;
  return true;
}

template <typename T>
bool ReadNumber(std::string_view s, size_t* pos, T* out) {
  auto [ptr, ec] = std::from_chars(s.data() + *pos, s.data() + s.size(), *out);
  if (ec != std::errc()) return false;
  *pos = static_cast<size_t>(ptr - s.data());
  return true;
}

bool ReadIntList(std::string_view s, size_t* pos, std::vector<int>* out) {
  if (*pos < s.size() && s[*pos] == ']') {
    ++*pos;
    return true;
  }
  while (true) {
    int v = 0;
    if (!ReadNumber(s, pos, &v)) return false;
    out->push_back(v);
    if (*pos >= s.size()) return false;
    char c = s[(*pos)++];
    if (c == ']') return true;
    if (c != ',') return false;
  }
}

bool ReadNode(std::string_view s, size_t* pos, Node* node) {
  std::string label;
  if (!Seek(s, "\"id\":", pos) || !ReadNumber(s, pos, &node->id)) return false;
  if (!Seek(s, "\"label\":", pos) || !ReadQuoted(s, pos, &label)) return false;
  if (!Seek(s, "\"cells\":[", pos)) return false;
  while (*pos < s.size() && s[*pos] != ']') {
    if (s[*pos] == ',') ++*pos;
    std::string cell;
    if (!ReadQuoted(s, pos, &cell)) return false;
    node->cells.push_back(std::move(cell));
  }
  ++*pos;
  if (!Seek(s, "\"mass\":", pos) || !ReadNumber(s, pos, &node->mass)) {
    return false;
  }
  if (!Seek(s, "\"exact\":", pos)) return false;
  node->exact = s.compare(*pos, 4, "true") == 0;
  if (!Seek(s, "\"parent\":", pos) || !ReadNumber(s, pos, &node->parent)) {
    return false;
  }
  if (!Seek(s, "\"children\":[", pos)) return false;
  if (!ReadIntList(s, pos, &node->children)) return false;
  return *pos < s.size() && s[(*pos)++] == '}';
}

}  // namespace

Dataset::Dataset(uint64_t seed) {
  Rng rng(MixSeed(seed, 0xda7a));
  for (const Dimension& dim : kDimensions) {
    names_.emplace_back(dim.name);
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 1; r <= dim.cardinality; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), dim.zipf_exponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
    cdf_.push_back(std::move(cdf));
    std::vector<uint8_t> perm(dim.cardinality);
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint8_t>(i);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Below(i)]);
    }
    rank_to_code_.push_back(std::move(perm));
  }
  codes_.resize(names_.size());
}

void Dataset::AppendRandomRow(Rng& rng) {
  // Correlation links popularity ranks, not codes, so the table's structure
  // (which rules carry mass) is the same for every seed; the seed only
  // relabels values and draws the rows.
  size_t prev_rank = 0;
  for (size_t c = 0; c < names_.size(); ++c) {
    const std::vector<double>& cdf = cdf_[c];
    size_t rank;
    if (c % 2 == 1 && rng.Unit() < kCorrelation) {
      rank = (prev_rank * 5 + 1) % cdf.size();
    } else {
      rank = std::min<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), rng.Unit()) - cdf.begin(),
          cdf.size() - 1);
    }
    codes_[c].push_back(rank_to_code_[c][rank]);
    prev_rank = rank;
  }
  amount_.push_back(1 + static_cast<int64_t>(rng.Below(kMaxAmount)));
}

void Dataset::AppendRandomRows(Rng& rng, size_t count) {
  for (size_t i = 0; i < count; ++i) AppendRandomRow(rng);
}

std::string Dataset::CsvRow(size_t row) const {
  std::string out;
  for (size_t c = 0; c < names_.size(); ++c) {
    out += ValueOf(names_[c], codes_[c][row]);
    out += ',';
  }
  out += std::to_string(amount_[row]);
  return out;
}

std::string Dataset::Csv() const {
  std::string out;
  out.reserve(rows() * 40);
  for (const std::string& name : names_) out += name + ",";
  out += "amount\n";
  for (size_t r = 0; r < rows(); ++r) {
    out += CsvRow(r);
    out += '\n';
  }
  return out;
}

int Dataset::CodeOf(size_t col, std::string_view value) const {
  if (value.size() < 3 || value.substr(0, 2) != names_[col].substr(0, 2)) {
    return -1;
  }
  int code = -1;
  auto [ptr, ec] =
      std::from_chars(value.data() + 2, value.data() + value.size(), code);
  if (ec != std::errc() || ptr != value.data() + value.size() || code < 0 ||
      static_cast<size_t>(code) >= cdf_[col].size()) {
    return -1;
  }
  return code;
}

bool Dataset::Mass(const std::vector<std::string>& cells, size_t row_limit,
                   bool sum, double* mass) const {
  if (cells.size() != names_.size()) return false;
  std::vector<std::pair<size_t, uint8_t>> fixed;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c] == "?") continue;
    int code = CodeOf(c, cells[c]);
    if (code < 0) return false;
    fixed.emplace_back(c, static_cast<uint8_t>(code));
  }
  double total = 0;
  const size_t limit = std::min(row_limit, rows());
  for (size_t r = 0; r < limit; ++r) {
    bool match = true;
    for (const auto& [col, code] : fixed) {
      if (codes_[col][r] != code) {
        match = false;
        break;
      }
    }
    if (match) total += sum ? static_cast<double>(amount_[r]) : 1.0;
  }
  *mass = total;
  return true;
}

bool ParseReply(std::string_view line, Reply* out) {
  *out = Reply();
  if (line.rfind("{\"ok\":false", 0) == 0) return true;
  if (line.rfind("{\"ok\":true", 0) != 0) return false;
  out->ok = true;
  size_t pos = 0;
  if (Seek(line, "\"session\":", &pos)) {
    if (!ReadQuoted(line, &pos, &out->session)) return false;
  }
  pos = 0;
  if (Seek(line, "\"table\":{", &pos)) {
    return Seek(line, "\"version\":", &pos) &&
           ReadNumber(line, &pos, &out->table_version) &&
           Seek(line, "\"rows\":", &pos) &&
           ReadNumber(line, &pos, &out->table_rows);
  }
  pos = 0;
  if (!Seek(line, "\"tree\":", &pos)) return true;
  std::string label;
  if (!Seek(line, "\"mass_label\":", &pos) ||
      !ReadQuoted(line, &pos, &label)) {
    return false;
  }
  out->sum = label.rfind("Sum(", 0) == 0;
  if (!Seek(line, "\"nodes\":[", &pos)) return false;
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] == ',') ++pos;
    Node node;
    if (!ReadNode(line, &pos, &node)) return false;
    out->nodes.push_back(std::move(node));
  }
  return pos < line.size();
}

bool TreeConsistent(const Reply& reply) {
  if (reply.nodes.empty() || reply.nodes[0].parent != -1) return false;
  std::unordered_set<int> ids;
  for (const Node& n : reply.nodes) {
    if (!ids.insert(n.id).second) return false;
  }
  auto find = [&](int id) -> const Node* {
    for (const Node& n : reply.nodes) {
      if (n.id == id) return &n;
    }
    return nullptr;
  };
  for (const Node& n : reply.nodes) {
    if (&n != &reply.nodes[0]) {
      const Node* parent = find(n.parent);
      if (parent == nullptr ||
          std::count(parent->children.begin(), parent->children.end(),
                     n.id) != 1) {
        return false;
      }
    }
    for (int child : n.children) {
      const Node* c = find(child);
      if (c == nullptr || c->parent != n.id) return false;
    }
  }
  return true;
}

bool RunAnalystSession(Rng& rng, const std::string& dataset_name,
                       const SessionShape& shape, size_t k, bool sum,
                       const Call& call,
                       const Observe& observe) {
  // Returns true when the response is well-formed and ok; `reply` then
  // holds it.
  auto step = [&](const std::string& line, Reply* reply) {
    std::string response = call(line);
    bool parsed = ParseReply(response, reply);
    observe(line, response, *reply);
    return parsed && reply->ok;
  };

  // One search thread per shard, so a session's work is the same on any
  // core count.
  std::string open = "open dataset=" + dataset_name + " k=" +
                     std::to_string(k) + (sum ? " measure=amount" : "") +
                     " threads=1";
  Reply tree;
  if (!step(open, &tree) || tree.session.empty()) return false;
  const std::string token = tree.session;

  bool good = step("expand " + token + " 0", &tree);
  for (int d = 0; good && d < shape.drills; ++d) {
    std::vector<const Node*> leaves;
    for (const Node& n : tree.nodes) {
      if (n.id != 0 && n.children.empty() && HasStar(n)) leaves.push_back(&n);
    }
    if (leaves.empty()) break;
    const Node& leaf = *leaves[rng.Below(leaves.size())];
    std::string line;
    if (rng.Below(3) == 0) {
      std::vector<size_t> stars;
      for (size_t c = 0; c < leaf.cells.size(); ++c) {
        if (leaf.cells[c] == "?") stars.push_back(c);
      }
      line = "star " + token + " " + std::to_string(leaf.id) + " " +
             std::to_string(stars[rng.Below(stars.size())]);
    } else {
      line = "expand " + token + " " + std::to_string(leaf.id);
    }
    Reply next;
    good = step(line, &next);
    if (good) tree = std::move(next);
  }
  if (good) {
    std::vector<int> expanded;
    for (const Node& n : tree.nodes) {
      if (n.id != 0 && !n.children.empty()) expanded.push_back(n.id);
    }
    Reply next;
    if (!expanded.empty()) {
      good = step("collapse " + token + " " +
                      std::to_string(expanded[rng.Below(expanded.size())]),
                  &next);
    }
    good = good && step("show " + token, &next);
    if (good && shape.refresh_exact) good = step("exact " + token, &next);
  }
  Reply closed;
  return step("close " + token, &closed) && good;
}

}  // namespace e2e
