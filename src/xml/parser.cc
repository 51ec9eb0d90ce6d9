#include "xml/parser.h"

#include <cctype>
#include <string>
#include <vector>

namespace mix::xml {

namespace {

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool StartsWith(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  char Next() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void Skip(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Next();
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) Next();
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at line " + std::to_string(line_) +
                              ", column " + std::to_string(col_));
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':' || c == '@';
}

class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : cur_(input) {}

  Result<std::unique_ptr<Document>> Run() {
    auto doc = std::make_unique<Document>();
    Status s = SkipMisc();
    if (!s.ok()) return s;
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return cur_.Error("expected root element");
    }
    Node* root = nullptr;
    s = ParseElement(doc.get(), &root);
    if (!s.ok()) return s;
    doc->set_root(root);
    s = SkipMisc();
    if (!s.ok()) return s;
    if (!cur_.AtEnd()) return cur_.Error("trailing content after root element");
    return doc;
  }

 private:
  /// Skips whitespace, comments, PIs and DOCTYPE between markup.
  Status SkipMisc() {
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.StartsWith("<!--")) {
        cur_.Skip(4);
        while (!cur_.AtEnd() && !cur_.StartsWith("-->")) cur_.Next();
        if (cur_.AtEnd()) return cur_.Error("unterminated comment");
        cur_.Skip(3);
      } else if (cur_.StartsWith("<?")) {
        cur_.Skip(2);
        while (!cur_.AtEnd() && !cur_.StartsWith("?>")) cur_.Next();
        if (cur_.AtEnd()) return cur_.Error("unterminated processing instruction");
        cur_.Skip(2);
      } else if (cur_.StartsWith("<!DOCTYPE")) {
        while (!cur_.AtEnd() && cur_.Peek() != '>') cur_.Next();
        if (cur_.AtEnd()) return cur_.Error("unterminated DOCTYPE");
        cur_.Next();
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseName(std::string* out) {
    out->clear();
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) out->push_back(cur_.Next());
    if (out->empty()) return cur_.Error("expected name");
    return Status::OK();
  }

  Status DecodeEntity(std::string* out) {
    // cur_ points just past '&'.
    std::string name;
    while (!cur_.AtEnd() && cur_.Peek() != ';') name.push_back(cur_.Next());
    if (cur_.AtEnd()) return cur_.Error("unterminated entity reference");
    cur_.Next();  // ';'
    if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "amp") {
      *out += '&';
    } else if (name == "quot") {
      *out += '"';
    } else if (name == "apos") {
      *out += '\'';
    } else if (name.size() > 1 && name[0] == '#') {
      int code = name[1] == 'x' ? std::stoi(name.substr(2), nullptr, 16)
                                : std::atoi(name.c_str() + 1);
      *out += static_cast<char>(code);
    } else {
      return cur_.Error("unknown entity &" + name + ";");
    }
    return Status::OK();
  }

  Status ParseAttributes(Document* doc, Node* element) {
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) return cur_.Error("unterminated start tag");
      char c = cur_.Peek();
      if (c == '>' || c == '/') return Status::OK();
      std::string name;
      Status s = ParseName(&name);
      if (!s.ok()) return s;
      cur_.SkipWhitespace();
      if (cur_.AtEnd() || cur_.Peek() != '=') {
        return cur_.Error("expected '=' after attribute name");
      }
      cur_.Next();
      cur_.SkipWhitespace();
      if (cur_.AtEnd() || (cur_.Peek() != '"' && cur_.Peek() != '\'')) {
        return cur_.Error("expected quoted attribute value");
      }
      char quote = cur_.Next();
      std::string value;
      while (!cur_.AtEnd() && cur_.Peek() != quote) {
        if (cur_.Peek() == '&') {
          cur_.Next();
          s = DecodeEntity(&value);
          if (!s.ok()) return s;
        } else {
          value.push_back(cur_.Next());
        }
      }
      if (cur_.AtEnd()) return cur_.Error("unterminated attribute value");
      cur_.Next();  // closing quote
      // Attribute a="v" becomes child element @a[v] (footnote 3 treatment).
      Node* attr = doc->NewElement("@" + name);
      doc->AppendChild(attr, doc->NewText(value));
      doc->AppendChild(element, attr);
    }
  }

  /// Appends the pending character data `*text` to `element` and clears
  /// it. Whitespace-only runs between elements are formatting, not data;
  /// mixed content is trimmed.
  static void FlushText(Document* doc, Node* element, std::string* text) {
    if (text->find_first_not_of(" \t\r\n\v\f") != std::string::npos) {
      size_t b = text->find_first_not_of(" \t\r\n");
      size_t e = text->find_last_not_of(" \t\r\n");
      doc->AppendChild(element, doc->NewText(text->substr(b, e - b + 1)));
    }
    text->clear();
  }

  /// Parses a start tag at the cursor ('<') with its attributes; `*empty`
  /// is set for a self-closing tag.
  Status ParseStartTag(Document* doc, Node** element, bool* empty) {
    cur_.Next();
    std::string name;
    Status s = ParseName(&name);
    if (!s.ok()) return s;
    *element = doc->NewElement(name);
    s = ParseAttributes(doc, *element);
    if (!s.ok()) return s;
    *empty = cur_.Peek() == '/';
    if (*empty) {
      cur_.Next();
      if (cur_.AtEnd() || cur_.Peek() != '>') return cur_.Error("expected '>'");
    }
    cur_.Next();  // '>'
    return Status::OK();
  }

  /// Parses the element at the cursor ('<') and everything inside it. The
  /// open elements live on an explicit stack, so the nesting depth of the
  /// input never sets the depth of the call stack.
  Status ParseElement(Document* doc, Node** out) {
    std::vector<Node*> open;
    std::string text;
    for (;;) {
      Node* element = nullptr;
      bool empty = false;
      Status s = ParseStartTag(doc, &element, &empty);
      if (!s.ok()) return s;
      if (open.empty()) {
        *out = element;
      } else {
        doc->AppendChild(open.back(), element);
      }
      if (!empty) open.push_back(element);
      // Content of the innermost open element, up to the next start tag.
      for (;;) {
        if (open.empty()) return Status::OK();
        Node* parent = open.back();
        if (cur_.AtEnd()) {
          return cur_.Error("unterminated element <" + parent->label + ">");
        }
        if (cur_.StartsWith("</")) {
          FlushText(doc, parent, &text);
          cur_.Skip(2);
          std::string name;
          s = ParseName(&name);
          if (!s.ok()) return s;
          if (name != parent->label) {
            return cur_.Error("mismatched end tag </" + name +
                              ">, expected </" + parent->label + ">");
          }
          cur_.SkipWhitespace();
          if (cur_.AtEnd() || cur_.Peek() != '>') {
            return cur_.Error("expected '>'");
          }
          cur_.Next();
          open.pop_back();
          continue;
        }
        if (cur_.StartsWith("<!--")) {
          FlushText(doc, parent, &text);
          s = SkipMisc();
          if (!s.ok()) return s;
          continue;
        }
        if (cur_.Peek() == '<') {
          FlushText(doc, parent, &text);
          break;  // a child's start tag
        }
        if (cur_.Peek() == '&') {
          cur_.Next();
          s = DecodeEntity(&text);
          if (!s.ok()) return s;
          continue;
        }
        text.push_back(cur_.Next());
      }
    }
  }

  Cursor cur_;
};

/// Parser for the paper's term notation.
class TermParser {
 public:
  explicit TermParser(std::string_view input) : cur_(input) {}

  Result<std::unique_ptr<Document>> Run() {
    auto doc = std::make_unique<Document>();
    Node* root = nullptr;
    Status s = ParseTree(doc.get(), &root);
    if (!s.ok()) return s;
    cur_.SkipWhitespace();
    if (!cur_.AtEnd()) return cur_.Error("trailing content");
    doc->set_root(root);
    return doc;
  }

 private:
  Status ParseLabel(std::string* out) {
    out->clear();
    cur_.SkipWhitespace();
    while (!cur_.AtEnd()) {
      char c = cur_.Peek();
      if (c == '[' || c == ']' || c == ',') break;
      out->push_back(cur_.Next());
    }
    // Trim trailing whitespace.
    while (!out->empty() && std::isspace(static_cast<unsigned char>(out->back()))) {
      out->pop_back();
    }
    if (out->empty()) return cur_.Error("expected label");
    return Status::OK();
  }

  /// Parses one tree at the cursor. Open elements live on an explicit
  /// stack, so the nesting depth of the input never sets the depth of the
  /// call stack.
  Status ParseTree(Document* doc, Node** out) {
    std::vector<Node*> open;
    for (;;) {
      std::string label;
      Status s = ParseLabel(&label);
      if (!s.ok()) return s;
      cur_.SkipWhitespace();
      const bool element = !cur_.AtEnd() && cur_.Peek() == '[';
      Node* node = element ? doc->NewElement(label) : doc->NewText(label);
      if (open.empty()) {
        *out = node;
      } else {
        doc->AppendChild(open.back(), node);
      }
      if (element) {
        cur_.Next();  // '['
        cur_.SkipWhitespace();
        if (cur_.AtEnd() || cur_.Peek() != ']') {
          open.push_back(node);
          continue;  // its first child
        }
        cur_.Next();  // an empty element
      }
      // `node` is complete: close brackets up to the next sibling.
      for (;;) {
        if (open.empty()) return Status::OK();
        cur_.SkipWhitespace();
        if (cur_.AtEnd()) return cur_.Error("unterminated '['");
        char c = cur_.Next();
        if (c == ']') {
          open.pop_back();
          continue;
        }
        if (c != ',') return cur_.Error("expected ',' or ']'");
        break;
      }
    }
  }

  Cursor cur_;
};

}  // namespace

Result<std::unique_ptr<Document>> Parse(std::string_view input) {
  return XmlParser(input).Run();
}

Result<std::unique_ptr<Document>> ParseTerm(std::string_view input) {
  return TermParser(input).Run();
}

}  // namespace mix::xml
