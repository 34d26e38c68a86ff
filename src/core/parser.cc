#include "core/parser.h"

#include <cctype>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <vector>

namespace simq {
namespace {

enum class TokenKind { kIdent, kNumber, kPunct, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;  // identifier or punctuation; a view of the input
  double number = 0.0;    // kNumber payload
  size_t position = 0;    // offset in the input, for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        Token token;
        token.kind = TokenKind::kIdent;
        token.text = std::string_view(text_).substr(start, i - start);
        token.position = start;
        tokens.push_back(token);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+' || c == '.') {
        Token token;
        token.kind = TokenKind::kNumber;
        token.position = i;
        const size_t length = ScanNumber(i, &token.number);
        if (length == 0) {
          return Error(i, "malformed number");
        }
        i += length;
        tokens.push_back(token);
        continue;
      }
      if (c == '#' || c == '[' || c == ']' || c == '(' || c == ')' ||
          c == ',' || c == '|') {
        Token token;
        token.kind = TokenKind::kPunct;
        token.text = std::string_view(text_).substr(i, 1);
        token.position = i;
        tokens.push_back(token);
        ++i;
        continue;
      }
      return Error(i, std::string("unexpected character '") + c + "'");
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.position = text_.size();
    tokens.push_back(end);
    return tokens;
  }

 private:
  // Reads the number starting at `start` and returns how many characters
  // it takes, 0 when there is none. A number is whatever std::strtod
  // accepts, with strtod's bits. Plain decimals ([-]digits[.digits][e..])
  // go through std::from_chars, several times faster and bit-identical on
  // them; everything else goes to strtod: a leading '+', hex, the inf/nan
  // spellings (from_chars drops NaN payloads) and values out of range
  // (from_chars then leaves the value unset).
  size_t ScanNumber(size_t start, double* value) const {
    const char* begin = text_.c_str() + start;
    const char* const end = text_.c_str() + text_.size();
    const char* digits = *begin == '-' ? begin + 1 : begin;
    const bool plain_decimal =
        digits != end &&
        (std::isdigit(static_cast<unsigned char>(*digits)) ||
         *digits == '.') &&
        !(digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X'));
    if (plain_decimal) {
      const std::from_chars_result parsed = std::from_chars(begin, end, *value);
      if (parsed.ec == std::errc()) {
        return static_cast<size_t>(parsed.ptr - begin);
      }
    }
    char* stop = nullptr;
    *value = std::strtod(begin, &stop);
    return static_cast<size_t>(stop - begin);
  }

  Status Error(size_t position, const std::string& message) const {
    std::ostringstream out;
    out << message << " at offset " << position;
    return Status::InvalidArgument(out.str());
  }

  const std::string& text_;
};

// True when `word` spells the upper-case `keyword` in any case.
bool IsKeyword(std::string_view word, std::string_view keyword) {
  if (word.size() != keyword.size()) {
    return false;
  }
  for (size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(word[i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query query;
    if (PeekKeyword("EXPLAIN")) {
      Advance();
      query.explain = true;
      // EXPLAIN ANALYZE: execute and report actual timings/cardinalities
      // beside the plan. ANALYZE alone is not a query prefix.
      if (PeekKeyword("ANALYZE")) {
        Advance();
        query.analyze = true;
      }
    }
    if (PeekKeyword("RANGE")) {
      Advance();
      SIMQ_RETURN_IF_ERROR(ParseRange(&query));
    } else if (PeekKeyword("PAIRS")) {
      Advance();
      SIMQ_RETURN_IF_ERROR(ParsePairs(&query));
    } else if (PeekKeyword("NEAREST")) {
      Advance();
      SIMQ_RETURN_IF_ERROR(ParseNearest(&query));
    } else {
      return Error("expected RANGE, PAIRS, or NEAREST");
    }
    SIMQ_RETURN_IF_ERROR(ParseClauses(&query));
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after query");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  void Advance() { ++index_; }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().kind == TokenKind::kIdent && IsKeyword(Peek().text, keyword);
  }
  bool PeekPunct(char punct) const {
    return Peek().kind == TokenKind::kPunct && Peek().text[0] == punct;
  }

  Status Error(const std::string& message) const {
    return ErrorAt(Peek().position, message);
  }

  // Anchors the message at an explicit offset -- used when the offending
  // token has already been consumed (e.g. a bad VIA/MODE argument or an
  // unknown rule name), so the position points at it, not past it.
  Status ErrorAt(size_t position, const std::string& message) const {
    std::ostringstream out;
    out << message << " at offset " << position;
    return Status::InvalidArgument(out.str());
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Error("expected " + std::string(keyword));
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectPunct(char punct) {
    if (!PeekPunct(punct)) {
      return Error(std::string("expected '") + punct + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ParseNumber(double* out) {
    if (Peek().kind != TokenKind::kNumber) {
      return Error("expected a number");
    }
    *out = Peek().number;
    Advance();
    return Status::Ok();
  }

  Status ParseWord(std::string_view* out) {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected an identifier");
    }
    *out = Peek().text;
    Advance();
    return Status::Ok();
  }

  Status ParseIdent(std::string* out) {
    std::string_view word;
    SIMQ_RETURN_IF_ERROR(ParseWord(&word));
    out->assign(word);
    return Status::Ok();
  }

  Status ParseSeries(SeriesRef* out) {
    if (PeekPunct('#')) {
      Advance();
      SIMQ_RETURN_IF_ERROR(ParseIdent(&out->name.emplace()));
      return Status::Ok();
    }
    SIMQ_RETURN_IF_ERROR(ExpectPunct('['));
    while (true) {
      double value = 0.0;
      SIMQ_RETURN_IF_ERROR(ParseNumber(&value));
      out->literal.push_back(value);
      if (PeekPunct(',')) {
        Advance();
        continue;
      }
      break;
    }
    return ExpectPunct(']');
  }

  Status ParseRange(Query* query) {
    query->kind = QueryKind::kRange;
    SIMQ_RETURN_IF_ERROR(ParseIdent(&query->relation));
    SIMQ_RETURN_IF_ERROR(ExpectKeyword("WITHIN"));
    SIMQ_RETURN_IF_ERROR(ParseNumber(&query->epsilon));
    SIMQ_RETURN_IF_ERROR(ExpectKeyword("OF"));
    return ParseSeries(&query->query_series);
  }

  Status ParsePairs(Query* query) {
    query->kind = QueryKind::kAllPairs;
    SIMQ_RETURN_IF_ERROR(ParseIdent(&query->relation));
    SIMQ_RETURN_IF_ERROR(ExpectKeyword("WITHIN"));
    return ParseNumber(&query->epsilon);
  }

  Status ParseNearest(Query* query) {
    query->kind = QueryKind::kNearest;
    double k = 0.0;
    SIMQ_RETURN_IF_ERROR(ParseNumber(&k));
    const std::optional<int> count = PositiveIntegerArg(k, INT_MAX);
    if (!count.has_value()) {
      return Error("NEAREST expects a positive integer count");
    }
    query->k = *count;
    SIMQ_RETURN_IF_ERROR(ParseIdent(&query->relation));
    SIMQ_RETURN_IF_ERROR(ExpectKeyword("TO"));
    return ParseSeries(&query->query_series);
  }

  Status ParseTransform(std::shared_ptr<const TransformationRule>* out) {
    std::vector<std::unique_ptr<TransformationRule>> rules;
    while (true) {
      const size_t name_position = Peek().position;
      std::string name;
      SIMQ_RETURN_IF_ERROR(ParseIdent(&name));
      std::vector<double> args;
      if (PeekPunct('(')) {
        Advance();
        while (true) {
          double value = 0.0;
          SIMQ_RETURN_IF_ERROR(ParseNumber(&value));
          args.push_back(value);
          if (PeekPunct(',')) {
            Advance();
            continue;
          }
          break;
        }
        SIMQ_RETURN_IF_ERROR(ExpectPunct(')'));
      }
      Result<std::unique_ptr<TransformationRule>> rule =
          MakeRuleByName(name, args);
      if (!rule.ok()) {
        return ErrorAt(name_position, rule.status().message());
      }
      rules.push_back(std::move(rule).value());
      if (PeekPunct('|')) {
        Advance();
        continue;
      }
      break;
    }
    if (rules.size() == 1) {
      *out = std::move(rules[0]);
    } else {
      *out = MakeCompositeRule(std::move(rules));
    }
    return Status::Ok();
  }

  Status ParseClauses(Query* query) {
    while (Peek().kind == TokenKind::kIdent) {
      if (PeekKeyword("USING")) {
        Advance();
        SIMQ_RETURN_IF_ERROR(ParseTransform(&query->transform));
        // Optional per-side form for all-pairs joins: USING <left> VS
        // <right> expresses the join r >< T(r).
        if (PeekKeyword("VS")) {
          if (query->kind != QueryKind::kAllPairs) {
            return Error("VS is only valid in PAIRS queries");
          }
          Advance();
          SIMQ_RETURN_IF_ERROR(ParseTransform(&query->transform_right));
        }
      } else if (PeekKeyword("MODE")) {
        Advance();
        const size_t arg_position = Peek().position;
        std::string_view mode;
        SIMQ_RETURN_IF_ERROR(ParseWord(&mode));
        if (IsKeyword(mode, "NORMAL")) {
          query->mode = DistanceMode::kNormalForm;
        } else if (IsKeyword(mode, "RAW")) {
          query->mode = DistanceMode::kRaw;
        } else if (IsKeyword(mode, "FILTERED")) {
          // Engine toggle, not a distance mode: request the quantized
          // filter-and-refine path (answers unchanged; see core/query.h).
          query->filter = FilterMode::kFiltered;
        } else if (IsKeyword(mode, "EXACT")) {
          query->filter = FilterMode::kExact;
        } else {
          return ErrorAt(arg_position,
                         "MODE expects NORMAL, RAW, FILTERED, or EXACT");
        }
      } else if (PeekKeyword("VIA")) {
        Advance();
        const size_t arg_position = Peek().position;
        std::string_view via;
        SIMQ_RETURN_IF_ERROR(ParseWord(&via));
        if (IsKeyword(via, "AUTO")) {
          query->strategy = ExecutionStrategy::kAuto;
        } else if (IsKeyword(via, "INDEX")) {
          query->strategy = ExecutionStrategy::kIndex;
        } else if (IsKeyword(via, "SCAN")) {
          query->strategy = ExecutionStrategy::kScan;
        } else if (IsKeyword(via, "FULLSCAN")) {
          query->strategy = ExecutionStrategy::kScanNoEarlyAbandon;
        } else {
          return ErrorAt(arg_position,
                         "VIA expects AUTO, INDEX, SCAN, or FULLSCAN");
        }
      } else if (PeekKeyword("PRENORMALIZED")) {
        Advance();
        query->query_prenormalized = true;
      } else if (PeekKeyword("MEAN")) {
        Advance();
        double lo = 0.0;
        double hi = 0.0;
        SIMQ_RETURN_IF_ERROR(ParseNumber(&lo));
        SIMQ_RETURN_IF_ERROR(ParseNumber(&hi));
        if (lo > hi) {
          return Error("MEAN range must satisfy lo <= hi");
        }
        query->pattern.mean_range = {lo, hi};
      } else if (PeekKeyword("STD")) {
        Advance();
        double lo = 0.0;
        double hi = 0.0;
        SIMQ_RETURN_IF_ERROR(ParseNumber(&lo));
        SIMQ_RETURN_IF_ERROR(ParseNumber(&hi));
        if (lo > hi) {
          return Error("STD range must satisfy lo <= hi");
        }
        query->pattern.std_range = {lo, hi};
      } else {
        return Error("unexpected clause '" + std::string(Peek().text) + "'");
      }
    }
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) {
    return tokens.status();
  }
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace simq
