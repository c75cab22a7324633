#include "runtime/value.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/proc.hpp"
#include "runtime/record.hpp"

namespace congen {

void* RcBase::allocatePayload(std::size_t bytes) {
  try {
    CONGEN_FAULT_POINT(RcAlloc);
    return ::operator new(bytes);
  } catch (const testing::InjectedFault&) {
  } catch (const std::bad_alloc&) {
  }
  governor::onHeapFree(bytes);
  throw errOutOfMemory("value payload");
}

// fromHeap/asRc reinterpret the stored pointer across the RcBase<->payload
// boundary; that is only sound while RcBase is a (polymorphic, hence
// primary, hence offset-zero) base of every payload class.
static_assert(std::is_base_of_v<RcBase, detail::StringBox>);
static_assert(std::is_base_of_v<RcBase, detail::BigIntBox>);
static_assert(std::is_base_of_v<RcBase, ListImpl>);
static_assert(std::is_base_of_v<RcBase, TableImpl>);
static_assert(std::is_base_of_v<RcBase, SetImpl>);
static_assert(std::is_base_of_v<RcBase, RecordImpl>);
static_assert(std::is_base_of_v<RcBase, ProcImpl>);

namespace {

std::string quoteString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string formatReal(double d) {
  if (std::isnan(d)) return "nan";
  if (std::isinf(d)) return d > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os.precision(15);
  os << d;
  std::string s = os.str();
  // Icon always writes reals with a decimal point or exponent.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

/// Parse a numeric literal per Icon: integer, radix form `NrDIGITS`
/// (N in 2..36), or real. Leading/trailing blanks tolerated.
std::optional<Value> parseNumeric(std::string_view text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  text = text.substr(begin, end - begin);
  if (text.empty()) return std::nullopt;

  // Radix form: [sign] dd 'r' digits
  if (const auto r = text.find_first_of("rR"); r != std::string_view::npos && r > 0 && r + 1 < text.size()) {
    std::string_view prefix = text.substr(0, r);
    bool neg = false;
    if (!prefix.empty() && (prefix[0] == '+' || prefix[0] == '-')) {
      neg = prefix[0] == '-';
      prefix.remove_prefix(1);
    }
    bool allDigits = !prefix.empty();
    unsigned radix = 0;
    for (const char c : prefix) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        allDigits = false;
        break;
      }
      radix = radix * 10 + static_cast<unsigned>(c - '0');
      if (radix > 36) break;
    }
    if (allDigits && radix >= 2 && radix <= 36) {
      if (auto big = BigInt::parse(text.substr(r + 1), radix)) {
        return Value::integer(neg ? -*big : *std::move(big));
      }
      return std::nullopt;
    }
  }

  const bool looksReal = text.find_first_of(".eE") != std::string_view::npos;
  if (!looksReal) {
    if (auto big = BigInt::parse(text, 10)) return Value::integer(*std::move(big));
    return std::nullopt;
  }
  // Real: parse with strtod over a bounded copy, require full consumption.
  std::string copy{text};
  char* endPtr = nullptr;
  const double d = std::strtod(copy.c_str(), &endPtr);
  if (endPtr != copy.c_str() + copy.size()) return std::nullopt;
  return Value::real(d);
}

}  // namespace

Value Value::integer(BigInt v) {
  if (auto small = v.toInt64()) return Value::integer(*small);
  return Value(new detail::BigIntBox(std::move(v)), Rep::kBigInt);
}

Value Value::stringConcat(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() + b.size();
  if (n <= kSsoCapacity) {
    Value r;
    if (!a.empty()) std::memcpy(r.raw_, a.data(), a.size());
    if (!b.empty()) std::memcpy(r.raw_ + a.size(), b.data(), b.size());
    r.aux_ = static_cast<std::uint8_t>(n);
    r.rep_ = Rep::kSso;
    return r;
  }
  std::string s;
  s.reserve(n);
  s.append(a);
  s.append(b);
  return Value(new detail::StringBox(std::move(s)), Rep::kHeapStr);
}

std::optional<Value> Value::toIntegerValue() const {
  if (isInteger()) return *this;
  if (isReal()) {
    const double d = real();
    if (std::floor(d) != d || !std::isfinite(d)) return std::nullopt;
    if (d >= -9.2e18 && d <= 9.2e18) return Value::integer(static_cast<std::int64_t>(d));
    return std::nullopt;
  }
  if (isString()) {
    auto n = parseNumeric(str());
    if (n && n->isInteger()) return n;
    if (n && n->isReal()) return n->toIntegerValue();
    return std::nullopt;
  }
  return std::nullopt;
}

std::int64_t Value::requireInt64(std::string_view what) const {
  if (rep_ == Rep::kInt) return loadScalar<std::int64_t>();
  auto iv = toIntegerValue();
  if (!iv || !iv->isSmallInt()) throw errIntegerExpected(std::string(what) + " = " + image());
  return iv->smallInt();
}

BigInt Value::requireBigInt(std::string_view what) const {
  auto iv = toIntegerValue();
  if (!iv) throw errIntegerExpected(std::string(what) + " = " + image());
  if (iv->isSmallInt()) return BigInt{iv->smallInt()};
  return iv->bigInt();
}

std::optional<Value> Value::toNumeric() const {
  if (isInteger() || isReal()) return *this;
  if (isString()) return parseNumeric(str());
  return std::nullopt;
}

double Value::requireReal(std::string_view what) const {
  auto n = toNumeric();
  if (!n) throw errNumericExpected(std::string(what) + " = " + image());
  if (n->isReal()) return n->real();
  if (n->isSmallInt()) return static_cast<double>(n->smallInt());
  return n->bigInt().toDouble();
}

std::string Value::requireString(std::string_view what) const {
  if (isString()) return std::string(str());
  if (isInteger() || isReal()) return toDisplayString();
  if (isNull()) return "";
  throw errStringExpected(std::string(what) + " = " + image());
}

std::string Value::typeName() const {
  switch (tag()) {
    case TypeTag::Null: return "null";
    case TypeTag::Integer: return "integer";
    case TypeTag::Real: return "real";
    case TypeTag::String: return "string";
    case TypeTag::List: return "list";
    case TypeTag::Table: return "table";
    case TypeTag::Set: return "set";
    case TypeTag::Record: return record()->type()->name();
    case TypeTag::Proc: return "procedure";
    case TypeTag::CoExpr: return "co-expression";
  }
  return "unknown";
}

std::string Value::image() const {
  switch (tag()) {
    case TypeTag::Null: return "&null";
    case TypeTag::Integer: return isSmallInt() ? std::to_string(smallInt()) : bigInt().toString();
    case TypeTag::Real: return formatReal(real());
    case TypeTag::String: return quoteString(str());
    case TypeTag::List: {
      std::string out = "[";
      bool first = true;
      for (const auto& e : list()->elements()) {
        if (!first) out += ",";
        first = false;
        out += e.image();
      }
      return out + "]";
    }
    case TypeTag::Table: return "table(" + std::to_string(table()->size()) + ")";
    case TypeTag::Set: return "set(" + std::to_string(set()->size()) + ")";
    case TypeTag::Record: {
      std::string out = "record " + record()->type()->name() + "(";
      bool first = true;
      for (const auto& v : record()->values()) {
        if (!first) out += ",";
        first = false;
        out += v.image();
      }
      return out + ")";
    }
    case TypeTag::Proc: return "procedure " + proc()->name();
    case TypeTag::CoExpr: {
      std::ostringstream os;
      os << "co-expression@" << coExpr().get();
      return os.str();
    }
  }
  return "?";
}

std::string Value::toDisplayString() const {
  if (isString()) return std::string(str());
  return image();
}

bool Value::equals(const Value& other) const {
  if (tag() != other.tag()) return false;
  switch (tag()) {
    case TypeTag::Null: return true;
    case TypeTag::Integer:
      if (isSmallInt() != other.isSmallInt()) return false;  // canonical: small never equals big
      return isSmallInt() ? smallInt() == other.smallInt() : bigInt() == other.bigInt();
    case TypeTag::Real: return real() == other.real();
    case TypeTag::String: return str() == other.str();
    case TypeTag::List: return list() == other.list();
    case TypeTag::Table: return table() == other.table();
    case TypeTag::Set: return set() == other.set();
    case TypeTag::Record: return record() == other.record();
    case TypeTag::Proc: return proc() == other.proc();
    case TypeTag::CoExpr: return coExpr() == other.coExpr();
  }
  return false;
}

int Value::compare(const Value& other) const {
  if (tag() != other.tag()) return tag() < other.tag() ? -1 : 1;
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  switch (tag()) {
    case TypeTag::Null: return 0;
    case TypeTag::Integer: {
      if (isSmallInt() && other.isSmallInt()) return cmp3(smallInt(), other.smallInt());
      const BigInt a = isSmallInt() ? BigInt{smallInt()} : bigInt();
      const BigInt b = other.isSmallInt() ? BigInt{other.smallInt()} : other.bigInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeTag::Real: return cmp3(real(), other.real());
    case TypeTag::String: {
      const int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeTag::List: return cmp3(list().get(), other.list().get());
    case TypeTag::Table: return cmp3(table().get(), other.table().get());
    case TypeTag::Set: return cmp3(set().get(), other.set().get());
    case TypeTag::Record: return cmp3(record().get(), other.record().get());
    case TypeTag::Proc: return cmp3(proc().get(), other.proc().get());
    case TypeTag::CoExpr: return cmp3(coExpr().get(), other.coExpr().get());
  }
  return 0;
}

std::size_t Value::hash() const {
  const std::size_t seed = static_cast<std::size_t>(tag()) * 0x9E3779B97F4A7C15ull;
  auto mix = [seed](std::size_t h) { return seed ^ (h + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2)); };
  switch (tag()) {
    case TypeTag::Null: return mix(0);
    case TypeTag::Integer:
      return mix(isSmallInt() ? std::hash<std::int64_t>{}(smallInt()) : bigInt().hash());
    case TypeTag::Real: return mix(std::hash<double>{}(real()));
    case TypeTag::String: return mix(std::hash<std::string_view>{}(str()));
    case TypeTag::List: return mix(std::hash<const void*>{}(list().get()));
    case TypeTag::Table: return mix(std::hash<const void*>{}(table().get()));
    case TypeTag::Set: return mix(std::hash<const void*>{}(set().get()));
    case TypeTag::Record: return mix(std::hash<const void*>{}(record().get()));
    case TypeTag::Proc: return mix(std::hash<const void*>{}(proc().get()));
    case TypeTag::CoExpr: return mix(std::hash<const void*>{}(coExpr().get()));
  }
  return 0;
}

std::int64_t Value::size() const {
  switch (tag()) {
    case TypeTag::String: return static_cast<std::int64_t>(str().size());
    case TypeTag::List: return list()->size();
    case TypeTag::Table: return table()->size();
    case TypeTag::Set: return set()->size();
    case TypeTag::Record: return record()->size();
    default: throw errInvalidValue("*x applied to " + typeName());
  }
}

// ---------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------

namespace ops {

namespace {

/// Numeric operand after coercion; exactly one representation is active.
struct Num {
  enum class Kind { Small, Big, Real } kind;
  std::int64_t i = 0;
  BigInt b;
  double d = 0.0;
};

Num classify(const Value& v, const char* op) {
  auto n = v.toNumeric();
  if (!n) throw errNumericExpected(std::string("operand of ") + op + ": " + v.image());
  if (n->isSmallInt()) return {Num::Kind::Small, n->smallInt(), {}, 0.0};
  if (n->isInteger()) return {Num::Kind::Big, 0, n->bigInt(), 0.0};
  return {Num::Kind::Real, 0, {}, n->real()};
}

double asDouble(const Num& n) {
  switch (n.kind) {
    case Num::Kind::Small: return static_cast<double>(n.i);
    case Num::Kind::Big: return n.b.toDouble();
    case Num::Kind::Real: return n.d;
  }
  return 0.0;
}

BigInt asBig(const Num& n) { return n.kind == Num::Kind::Small ? BigInt{n.i} : n.b; }

/// Apply an integer op with an int64 fast path that falls back to BigInt
/// on overflow or when either side is already big.
template <class SmallOp, class BigOp>
Value intOp(const Num& a, const Num& b, SmallOp smallOp, BigOp bigOp) {
  if (a.kind == Num::Kind::Small && b.kind == Num::Kind::Small) {
    std::int64_t out = 0;
    if (smallOp(a.i, b.i, out)) return Value::integer(out);
  }
  return Value::integer(bigOp(asBig(a), asBig(b)));
}

}  // namespace

Value add(const Value& a, const Value& b) {
  const Num x = classify(a, "+"), y = classify(b, "+");
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    return Value::real(asDouble(x) + asDouble(y));
  }
  return intOp(
      x, y, [](std::int64_t p, std::int64_t q, std::int64_t& out) { return !__builtin_add_overflow(p, q, &out); },
      [](const BigInt& p, const BigInt& q) { return p + q; });
}

Value sub(const Value& a, const Value& b) {
  const Num x = classify(a, "-"), y = classify(b, "-");
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    return Value::real(asDouble(x) - asDouble(y));
  }
  return intOp(
      x, y, [](std::int64_t p, std::int64_t q, std::int64_t& out) { return !__builtin_sub_overflow(p, q, &out); },
      [](const BigInt& p, const BigInt& q) { return p - q; });
}

Value mul(const Value& a, const Value& b) {
  const Num x = classify(a, "*"), y = classify(b, "*");
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    return Value::real(asDouble(x) * asDouble(y));
  }
  return intOp(
      x, y, [](std::int64_t p, std::int64_t q, std::int64_t& out) { return !__builtin_mul_overflow(p, q, &out); },
      [](const BigInt& p, const BigInt& q) { return p * q; });
}

Value div(const Value& a, const Value& b) {
  const Num x = classify(a, "/"), y = classify(b, "/");
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    const double denom = asDouble(y);
    if (denom == 0.0) throw errDivisionByZero();
    return Value::real(asDouble(x) / denom);
  }
  if (y.kind == Num::Kind::Small && y.i == 0) throw errDivisionByZero();
  if (x.kind == Num::Kind::Small && y.kind == Num::Kind::Small) {
    if (!(x.i == std::numeric_limits<std::int64_t>::min() && y.i == -1)) {
      return Value::integer(x.i / y.i);
    }
  }
  return Value::integer(asBig(x) / asBig(y));
}

Value mod(const Value& a, const Value& b) {
  const Num x = classify(a, "%"), y = classify(b, "%");
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    const double denom = asDouble(y);
    if (denom == 0.0) throw errDivisionByZero();
    return Value::real(std::fmod(asDouble(x), denom));
  }
  if (y.kind == Num::Kind::Small && y.i == 0) throw errDivisionByZero();
  if (x.kind == Num::Kind::Small && y.kind == Num::Kind::Small) {
    if (!(x.i == std::numeric_limits<std::int64_t>::min() && y.i == -1)) {
      return Value::integer(x.i % y.i);
    }
  }
  return Value::integer(asBig(x) % asBig(y));
}

Value power(const Value& a, const Value& b) {
  const Num x = classify(a, "^"), y = classify(b, "^");
  if (x.kind != Num::Kind::Real && y.kind == Num::Kind::Small && y.i >= 0) {
    return Value::integer(asBig(x).pow(static_cast<std::uint64_t>(y.i)));
  }
  return Value::real(std::pow(asDouble(x), asDouble(y)));
}

Value negate(const Value& a) {
  const Num x = classify(a, "unary -");
  switch (x.kind) {
    case Num::Kind::Small:
      if (x.i != std::numeric_limits<std::int64_t>::min()) return Value::integer(-x.i);
      return Value::integer(-BigInt{x.i});
    case Num::Kind::Big: return Value::integer(-x.b);
    case Num::Kind::Real: return Value::real(-x.d);
  }
  return Value::null();
}

namespace {

/// Numeric three-way compare with coercion; throws if non-numeric.
int numCompare(const Value& a, const Value& b, const char* op) {
  const Num x = classify(a, op), y = classify(b, op);
  if (x.kind == Num::Kind::Real || y.kind == Num::Kind::Real) {
    const double p = asDouble(x), q = asDouble(y);
    return p < q ? -1 : (p > q ? 1 : 0);
  }
  if (x.kind == Num::Kind::Small && y.kind == Num::Kind::Small) {
    return x.i < y.i ? -1 : (x.i > y.i ? 1 : 0);
  }
  const BigInt p = asBig(x), q = asBig(y);
  return p < q ? -1 : (p > q ? 1 : 0);
}

std::optional<Value> succeedWith(bool ok, const Value& result) {
  if (ok) return result;
  return std::nullopt;
}

}  // namespace

std::optional<Value> numLT(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, "<") < 0, b);
}
std::optional<Value> numLE(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, "<=") <= 0, b);
}
std::optional<Value> numGT(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, ">") > 0, b);
}
std::optional<Value> numGE(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, ">=") >= 0, b);
}
std::optional<Value> numEQ(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, "=") == 0, b);
}
std::optional<Value> numNE(const Value& a, const Value& b) {
  return succeedWith(numCompare(a, b, "~=") != 0, b);
}

std::optional<Value> valEQ(const Value& a, const Value& b) { return succeedWith(a.equals(b), b); }
std::optional<Value> valNE(const Value& a, const Value& b) { return succeedWith(!a.equals(b), b); }

Value concat(const Value& a, const Value& b) {
  // Fast path: both operands already strings — one reserve, each payload
  // copied exactly once; short results land inline (SSO), allocating
  // nothing. requireString would materialize std::string copies of BOTH
  // sides first.
  if (a.isString() && b.isString()) return Value::stringConcat(a.str(), b.str());
  return Value::string(a.requireString("left operand of ||") + b.requireString("right operand of ||"));
}

Value listConcat(const Value& a, const Value& b) {
  if (!a.isList()) throw errListExpected("left operand of |||: " + a.image());
  if (!b.isList()) throw errListExpected("right operand of |||: " + b.image());
  auto out = ListImpl::create(a.list()->elements());
  for (const auto& e : b.list()->elements()) out->put(e);
  return Value::list(std::move(out));
}

}  // namespace ops

}  // namespace congen
