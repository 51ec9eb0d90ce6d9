#include "mediator/plan_text.h"

#include <vector>

namespace mix::mediator {

namespace {

using algebra::BindingPredicate;
using algebra::CompareOp;
using algebra::VarList;

struct Line {
  int depth = 0;
  std::string op;      ///< operator name
  std::string params;  ///< bracket contents (may be empty)
  int number = 0;      ///< 1-based line number for errors
};

Status Err(const Line& line, const std::string& msg) {
  return Status::ParseError("plan line " + std::to_string(line.number) + ": " +
                            msg);
}

Result<std::vector<Line>> Split(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view raw = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++number;
    // Strip a trailing % comment (quote-aware: a % inside a '...' predicate
    // constant is data). DumpAnnotatedPlan relies on this to keep its
    // per-line annotations round-trippable.
    bool quoted = false;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '\'') quoted = !quoted;
      if (raw[i] == '%' && !quoted) {
        raw = raw.substr(0, i);
        break;
      }
    }
    // Trim trailing whitespace.
    while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\r')) {
      raw.remove_suffix(1);
    }
    if (raw.empty()) continue;

    Line line;
    line.number = number;
    size_t indent = 0;
    while (indent < raw.size() && raw[indent] == ' ') ++indent;
    if (indent % 2 != 0) {
      line.depth = -1;  // flagged below
    } else {
      line.depth = static_cast<int>(indent / 2);
    }
    std::string_view rest = raw.substr(indent);
    size_t bracket = rest.find('[');
    if (bracket == std::string_view::npos) {
      line.op = std::string(rest);
    } else {
      if (rest.back() != ']') {
        return Status::ParseError("plan line " + std::to_string(number) +
                                  ": missing closing ']'");
      }
      line.op = std::string(rest.substr(0, bracket));
      line.params =
          std::string(rest.substr(bracket + 1, rest.size() - bracket - 2));
    }
    if (line.depth < 0) {
      return Status::ParseError("plan line " + std::to_string(number) +
                                ": odd indentation");
    }
    lines.push_back(std::move(line));
  }
  if (lines.empty()) return Status::ParseError("empty plan text");
  return lines;
}

/// Splits "a,b,c" at top level (no nesting inside params except {}).
std::vector<std::string> SplitParams(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int brace = 0;
  bool quoted = false;
  for (char c : s) {
    if (c == '\'' ) quoted = !quoted;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == ',' && brace == 0 && !quoted) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Trim(std::string s) {
  size_t b = s.find_first_not_of(' ');
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(' ');
  return s.substr(b, e - b + 1);
}

/// "$x" -> "x"; empty on mismatch.
std::string Var(const std::string& s) {
  std::string t = Trim(s);
  if (t.size() < 2 || t[0] != '$') return "";
  return t.substr(1);
}

/// "{$a,$b}" -> {a, b}; ok=false on mismatch.
bool VarSet(const std::string& s, VarList* out) {
  std::string t = Trim(s);
  if (t.size() < 2 || t.front() != '{' || t.back() != '}') return false;
  std::string inner = t.substr(1, t.size() - 2);
  if (Trim(inner).empty()) return true;
  for (const std::string& part : SplitParams(inner)) {
    std::string v = Var(part);
    if (v.empty()) return false;
    out->push_back(v);
  }
  return true;
}

/// Splits "lhs -> $out" and returns (lhs, out); ok=false on mismatch.
bool Arrow(const std::string& s, std::string* lhs, std::string* out_var) {
  size_t arrow = s.rfind(" -> $");
  if (arrow == std::string::npos) return false;
  *lhs = Trim(s.substr(0, arrow));
  *out_var = Trim(s.substr(arrow + 5));
  return !out_var->empty();
}

Result<BindingPredicate> ParsePredicate(const Line& line,
                                        const std::string& s) {
  std::string t = Trim(s);
  if (t.empty() || t[0] != '$') return Err(line, "predicate must start with $");
  size_t i = 1;
  while (i < t.size() && t[i] != '=' && t[i] != '!' && t[i] != '<' &&
         t[i] != '>') {
    ++i;
  }
  std::string left = t.substr(1, i - 1);
  size_t op_len = (i + 1 < t.size() && (t[i + 1] == '=')) ? 2 : 1;
  std::string op_text = t.substr(i, op_len);
  std::string right = t.substr(i + op_len);
  CompareOp op;
  if (op_text == "=") {
    op = CompareOp::kEq;
  } else if (op_text == "!=") {
    op = CompareOp::kNe;
  } else if (op_text == "<") {
    op = CompareOp::kLt;
  } else if (op_text == "<=") {
    op = CompareOp::kLe;
  } else if (op_text == ">") {
    op = CompareOp::kGt;
  } else if (op_text == ">=") {
    op = CompareOp::kGe;
  } else {
    return Err(line, "unknown comparison '" + op_text + "'");
  }
  if (!right.empty() && right[0] == '$') {
    return BindingPredicate::VarVar(left, op, right.substr(1));
  }
  if (right.size() >= 2 && right.front() == '\'' && right.back() == '\'') {
    return BindingPredicate::VarConst(left, op,
                                      right.substr(1, right.size() - 2));
  }
  return Err(line, "predicate right side must be $var or 'const'");
}

class Builder {
 public:
  explicit Builder(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Result<PlanPtr> Run() {
    auto root = Parse(0);
    if (!root.ok()) return root.status();
    if (pos_ < lines_.size()) {
      return Err(lines_[pos_], "unexpected extra subtree");
    }
    return root;
  }

 private:
  Result<PlanPtr> Parse(int depth) {
    if (pos_ >= lines_.size()) {
      return Status::ParseError("plan text ended while expecting an operator");
    }
    const Line line = lines_[pos_];
    if (line.depth != depth) {
      return Err(line, "expected indentation depth " + std::to_string(depth));
    }
    ++pos_;

    int arity = 1;
    if (line.op == "source" || line.op == "cachedView") arity = 0;
    if (line.op == "join" || line.op == "union" || line.op == "difference") {
      arity = 2;
    }
    std::vector<PlanPtr> children;
    for (int i = 0; i < arity; ++i) {
      auto child = Parse(depth + 1);
      if (!child.ok()) return child.status();
      children.push_back(std::move(child).ValueOrDie());
    }
    return Assemble(line, std::move(children));
  }

  Result<PlanPtr> Assemble(const Line& line, std::vector<PlanPtr> children) {
    const std::string& op = line.op;
    std::vector<std::string> parts = SplitParams(line.params);

    if (op == "source") {
      // [name -> $var] with an optional trailing ", uri=<uri>" consuming
      // everything up to the closing bracket verbatim (the uri may contain
      // commas and quotes, so it cannot go through SplitParams).
      std::string params = line.params;
      std::string uri;
      size_t uri_at = params.find(", uri=");
      if (uri_at != std::string::npos) {
        uri = params.substr(uri_at + 6);
        params = params.substr(0, uri_at);
      }
      std::string lhs, out;
      if (!Arrow(params, &lhs, &out)) {
        return Err(line, "source expects [name -> $var]");
      }
      PlanPtr n = PlanNode::Source(lhs, out);
      n->source_uri = uri;
      return n;
    }
    if (op == "cachedView") {
      // [name -> $var] with an optional trailing ", children".
      bool view_children = false;
      if (parts.size() == 2 && Trim(parts[1]) == "children") {
        view_children = true;
        parts.pop_back();
      }
      std::string lhs, out;
      if (parts.size() != 1 || !Arrow(parts[0], &lhs, &out)) {
        return Err(line, "cachedView expects [name -> $var]");
      }
      return PlanNode::CachedView(lhs, out, view_children);
    }
    if (op == "getDescendants") {
      // [$anchor,path -> $out] with optional trailing ", sigma" and
      // ", where <predicate>" (inline filter from select/gd fusion).
      std::optional<BindingPredicate> filter;
      if (!parts.empty() && Trim(parts.back()).rfind("where ", 0) == 0) {
        auto pred = ParsePredicate(line, Trim(parts.back()).substr(6));
        if (!pred.ok()) return pred.status();
        filter = std::move(pred).ValueOrDie();
        parts.pop_back();
      }
      bool sigma = false;
      if (!parts.empty() && Trim(parts.back()) == "sigma") {
        sigma = true;
        parts.pop_back();
      }
      if (parts.size() != 2) return Err(line, "getDescendants expects 2 params");
      std::string anchor = Var(parts[0]);
      std::string path, out;
      if (anchor.empty() || !Arrow(parts[1], &path, &out)) {
        return Err(line, "getDescendants expects [$a,path -> $out]");
      }
      PlanPtr n = PlanNode::GetDescendants(std::move(children[0]), anchor,
                                           path, out);
      n->use_sigma = sigma;
      n->predicate = std::move(filter);
      return n;
    }
    if (op == "select" || op == "join") {
      auto pred = ParsePredicate(line, line.params);
      if (!pred.ok()) return pred.status();
      if (op == "select") {
        return PlanNode::Select(std::move(children[0]),
                                std::move(pred).ValueOrDie());
      }
      return PlanNode::Join(std::move(children[0]), std::move(children[1]),
                            std::move(pred).ValueOrDie());
    }
    if (op == "groupBy") {
      if (parts.size() != 2) return Err(line, "groupBy expects 2 params");
      VarList group_vars;
      if (!VarSet(parts[0], &group_vars)) {
        return Err(line, "groupBy expects a {$...} variable set");
      }
      std::string grouped, out;
      if (!Arrow(parts[1], &grouped, &out) || Var(grouped).empty()) {
        return Err(line, "groupBy expects [$v -> $out]");
      }
      return PlanNode::GroupBy(std::move(children[0]), group_vars,
                               Var(grouped), out);
    }
    if (op == "concatenate") {
      if (parts.size() != 2) return Err(line, "concatenate expects 2 params");
      std::string x = Var(parts[0]);
      std::string y_text, out;
      if (x.empty() || !Arrow(parts[1], &y_text, &out) ||
          Var(y_text).empty()) {
        return Err(line, "concatenate expects [$x,$y -> $out]");
      }
      return PlanNode::Concatenate(std::move(children[0]), x, Var(y_text),
                                   out);
    }
    if (op == "createElement") {
      if (parts.size() != 2) return Err(line, "createElement expects 2 params");
      std::string label = Trim(parts[0]);
      bool constant = label.empty() || label[0] != '$';
      if (!constant) label = label.substr(1);
      std::string ch_text, out;
      if (!Arrow(parts[1], &ch_text, &out) || Var(ch_text).empty()) {
        return Err(line, "createElement expects [label,$ch -> $out]");
      }
      return PlanNode::CreateElement(std::move(children[0]), constant, label,
                                     Var(ch_text), out);
    }
    if (op == "orderBy" || op == "project") {
      bool occurrence = false;
      if (op == "orderBy" && parts.size() == 2 &&
          Trim(parts[1]) == "occurrence") {
        occurrence = true;
        parts.pop_back();
      }
      VarList vars;
      if (parts.size() != 1 || !VarSet(parts[0], &vars)) {
        return Err(line, op + " expects a {$...} variable set");
      }
      if (op == "orderBy") {
        return occurrence
                   ? PlanNode::OrderByOccurrence(std::move(children[0]), vars)
                   : PlanNode::OrderBy(std::move(children[0]), vars);
      }
      return PlanNode::Project(std::move(children[0]), vars);
    }
    if (op == "wrapList" || op == "rename") {
      std::string x_text, out;
      if (!Arrow(line.params, &x_text, &out) || Var(x_text).empty()) {
        return Err(line, op + " expects [$x -> $out]");
      }
      if (op == "wrapList") {
        return PlanNode::WrapList(std::move(children[0]), Var(x_text), out);
      }
      return PlanNode::Rename(std::move(children[0]), Var(x_text), out);
    }
    if (op == "const") {
      std::string lhs, out;
      if (!Arrow(line.params, &lhs, &out) || lhs.size() < 2 ||
          lhs.front() != '\'' || lhs.back() != '\'') {
        return Err(line, "const expects ['text' -> $out]");
      }
      return PlanNode::Const(std::move(children[0]),
                             lhs.substr(1, lhs.size() - 2), out);
    }
    if (op == "materialize") return PlanNode::Materialize(std::move(children[0]));
    if (op == "union") {
      return PlanNode::Union(std::move(children[0]), std::move(children[1]));
    }
    if (op == "difference") {
      return PlanNode::Difference(std::move(children[0]),
                                  std::move(children[1]));
    }
    if (op == "distinct") return PlanNode::Distinct(std::move(children[0]));
    if (op == "tupleDestroy") {
      std::string var = line.params.empty() ? "" : Var(line.params);
      if (!line.params.empty() && var.empty()) {
        return Err(line, "tupleDestroy expects [$var]");
      }
      return PlanNode::TupleDestroy(std::move(children[0]), var);
    }
    return Err(line, "unknown operator '" + op + "'");
  }

  std::vector<Line> lines_;
  size_t pos_ = 0;
};

}  // namespace

Result<PlanPtr> ParsePlanText(std::string_view text) {
  auto lines = Split(text);
  if (!lines.ok()) return lines.status();
  return Builder(std::move(lines).ValueOrDie()).Run();
}

}  // namespace mix::mediator
