/**
 * @file
 * Minimal JSON utilities for the observability layer: a streaming
 * writer with automatic comma/nesting management (used by the run
 * manifest, the Chrome trace exporter and the bench records) and one
 * strict parser: jsonParse builds a DOM, and jsonValidate is jsonParse
 * with the DOM thrown away (used by tests and the trace-smoke target
 * to prove emitted documents are well-formed).
 */

#ifndef NVMR_OBS_JSON_HH
#define NVMR_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nvmr
{

/** Append-only JSON document builder. */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Write an object key; the next value belongs to it. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(int v) { value(static_cast<int64_t>(v)); }
    void value(unsigned v) { value(static_cast<uint64_t>(v)); }
    void value(bool v);
    void valueNull();

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** The document so far (complete once all scopes are closed). */
    const std::string &str() const { return out; }

    /** True once every opened scope has been closed. */
    bool complete() const { return !stack.empty() ? false : !out.empty(); }

    /** JSON-escape a string (quotes not included). */
    static std::string escape(const std::string &s);

    /** Render a double the way value(double) does. */
    static std::string number(double v);

  private:
    struct Scope
    {
        bool object;
        unsigned items = 0;
    };

    std::string out;
    std::vector<Scope> stack;
    bool afterKey = false;

    void preValue();
};

/**
 * Validate that `text` is one well-formed JSON document (with nothing
 * but whitespace after it): jsonParse into a throwaway JsonValue. On
 * failure returns false and, when `error` is non-null, stores a
 * human-readable reason with an offset.
 */
bool jsonValidate(const std::string &text, std::string *error = nullptr);

/**
 * Parsed JSON document node. A small DOM for offline tooling
 * (nvmr_report) that needs to *read* the documents the writer emits.
 * Object member order is preserved.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Member's number (0 fallback); convenience for report code. */
    double numberAt(const std::string &key, double fallback = 0) const;

    /** Member's string ("" fallback). */
    std::string stringAt(const std::string &key) const;
};

/**
 * Parse one strict JSON document into a DOM (nesting capped at 512
 * levels, unpaired UTF-16 surrogates rejected). On failure returns
 * false and stores a reason with an offset in `error` when non-null.
 */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace nvmr

#endif // NVMR_OBS_JSON_HH
