#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace nvmr
{

// ----------------------------------------------------------------------
// JsonWriter
// ----------------------------------------------------------------------

void
JsonWriter::preValue()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (!stack.empty()) {
        if (stack.back().items > 0)
            out += ',';
        ++stack.back().items;
    }
}

void
JsonWriter::beginObject()
{
    preValue();
    out += '{';
    stack.push_back(Scope{true});
}

void
JsonWriter::endObject()
{
    panic_if(stack.empty() || !stack.back().object,
             "endObject without a matching beginObject");
    stack.pop_back();
    out += '}';
}

void
JsonWriter::beginArray()
{
    preValue();
    out += '[';
    stack.push_back(Scope{false});
}

void
JsonWriter::endArray()
{
    panic_if(stack.empty() || stack.back().object,
             "endArray without a matching beginArray");
    stack.pop_back();
    out += ']';
}

void
JsonWriter::key(const std::string &name)
{
    panic_if(stack.empty() || !stack.back().object,
             "key() outside an object");
    panic_if(afterKey, "key() while a key is already pending");
    if (stack.back().items > 0)
        out += ',';
    ++stack.back().items;
    out += '"';
    out += escape(name);
    out += "\":";
    afterKey = true;
}

void
JsonWriter::value(const std::string &v)
{
    preValue();
    out += '"';
    out += escape(v);
    out += '"';
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    preValue();
    out += number(v);
}

void
JsonWriter::value(uint64_t v)
{
    preValue();
    out += std::to_string(v);
}

void
JsonWriter::value(int64_t v)
{
    preValue();
    out += std::to_string(v);
}

void
JsonWriter::value(bool v)
{
    preValue();
    out += v ? "true" : "false";
}

void
JsonWriter::valueNull()
{
    preValue();
    out += "null";
}

std::string
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN literals
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        return std::to_string(static_cast<int64_t>(v));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

namespace
{

/** Strict recursive-descent JSON parser building a JsonValue DOM. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : s(text), err(error)
    {}

    bool
    run(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    const std::string &s;
    std::string *err;
    size_t pos = 0;
    unsigned depth = 0;
    static constexpr unsigned kMaxDepth = 512;

    bool
    fail(const std::string &why)
    {
        if (err)
            *err = why + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (s.compare(pos, n, word) != 0)
            return fail("bad literal");
        pos += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++depth;
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            --depth;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            skipWs();
            out.obj.emplace_back(std::move(key), JsonValue{});
            if (!parseValue(out.obj.back().second))
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++depth;
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            --depth;
            return true;
        }
        for (;;) {
            skipWs();
            out.arr.emplace_back();
            if (!parseValue(out.arr.back()))
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(uint32_t &v)
    {
        v = 0;
        for (unsigned i = 0; i < 4; ++i) {
            if (pos >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[pos])))
                return fail("bad \\u escape");
            char c = s[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else
                v |= static_cast<uint32_t>(c - 'A' + 10);
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // '"'
        while (pos < s.size()) {
            unsigned char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return fail("unterminated escape");
                char e = s[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    uint32_t cp = 0;
                    if (!hex4(cp))
                        return false;
                    // Combine a UTF-16 surrogate pair; an unpaired
                    // surrogate is not a Unicode scalar value and the
                    // document is malformed.
                    if (cp >= 0xDC00 && cp <= 0xDFFF)
                        return fail("unpaired low surrogate");
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        if (pos + 1 >= s.size() || s[pos] != '\\' ||
                            s[pos + 1] != 'u')
                            return fail("unpaired high surrogate");
                        pos += 2;
                        uint32_t lo = 0;
                        if (!hex4(lo))
                            return false;
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            return fail("unpaired high surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    return fail("bad escape character");
                }
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                out += static_cast<char>(c);
                ++pos;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (pos >= s.size() ||
            !std::isdigit(static_cast<unsigned char>(s[pos])))
            return fail("bad number");
        if (s[pos] == '0') {
            ++pos;
        } else {
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
        }
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (pos >= s.size() ||
                !std::isdigit(static_cast<unsigned char>(s[pos])))
                return fail("bad fraction");
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (pos >= s.size() ||
                !std::isdigit(static_cast<unsigned char>(s[pos])))
                return fail("bad exponent");
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
        }
        out.kind = JsonValue::Kind::Number;
        out.num = std::strtod(s.substr(start, pos - start).c_str(),
                              nullptr);
        return true;
    }
};

} // namespace

bool
jsonValidate(const std::string &text, std::string *error)
{
    JsonValue discard;
    return jsonParse(text, discard, error);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

double
JsonValue::numberAt(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::Number ? v->num : fallback;
}

std::string
JsonValue::stringAt(const std::string &key) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::String ? v->str : std::string();
}

bool
jsonParse(const std::string &text, JsonValue &out, std::string *error)
{
    out = JsonValue{};
    return Parser(text, error).run(out);
}

} // namespace nvmr
