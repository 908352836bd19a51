/**
 * @file
 * The simulator's one JSON layer. Every artefact is written through
 * Writer, which owns the only string escaper and number formatter and
 * tracks commas and nesting; a Style per container keeps each
 * artefact's layout. Every consumer walks Reader, a pull tokenizer
 * that builds no DOM (Chrome traces reach about a million events),
 * caps nesting depth, enforces the JSON number grammar, and throws
 * std::runtime_error on any malformed input.
 */

#ifndef CWSP_SIM_JSON_HH
#define CWSP_SIM_JSON_HH

#include <concepts>
#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cwsp::json {

/** How one container lays out its members. */
struct Style
{
    const char *comma; ///< between members sharing a line
    const char *colon; ///< between a key and its value
    /** N > 0: one member per line, N spaces deeper than the line
     *  the container opened on; 0: members share its line. */
    int indent;
};

/** {"a":1,"b":[1,2]} */
inline constexpr Style kCompact{",", ":", 0};
/** {"a": 1, "b": [1, 2]} */
inline constexpr Style kSpaced{", ", ": ", 0};
/** One member per line, @p step spaces deeper per level. */
constexpr Style
lines(int step)
{
    return Style{",", ": ", step};
}

/**
 * printf "%.<precision>g" of @p v (12 digits for metrics, 6 for
 * reports people read); non-finite values render as "null".
 */
std::string numberText(double v, int precision = 12);

/**
 * Run @p write on std::cout when @p path is "-", else on the file
 * @p path. False, with a message on stderr, when it cannot be opened.
 */
bool writeFile(const std::string &path,
               const std::function<void(std::ostream &)> &write);

/** Streaming JSON writer over an ostream. */
class Writer
{
  public:
    /** @p indent: depth of the line the first value starts on. */
    explicit Writer(std::ostream &os, int indent = 0)
        : os_(os), line_(indent)
    {
    }

    Writer &beginObject(Style s = kCompact) { return open('{', '}', s); }
    Writer &beginArray(Style s = kCompact) { return open('[', ']', s); }
    /** Close the innermost open container. */
    Writer &end();

    /** Next member's key; its value follows. */
    Writer &key(std::string_view k);

    /** A string, escaped. */
    Writer &value(std::string_view s);
    /** Without this, a string literal would pick value(bool). */
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }
    Writer &value(double v, int precision = 12)
    {
        return raw(numberText(v, precision));
    }
    Writer &value(std::integral auto v) { return raw(std::to_string(v)); }

    /** key(k) followed by value(args...). */
    template <typename... Args>
    Writer &
    field(std::string_view k, Args &&...args)
    {
        key(k);
        return value(std::forward<Args>(args)...);
    }

    /** Lay out the innermost container's remaining members in
     *  @p style. */
    void restyle(Style style) { stack_.back().style = style; }

  private:
    struct Frame
    {
        Style style;
        int indent;  ///< depth of the line the container opened on
        bool empty;  ///< no member written yet
        char close;
    };

    /** Separator and line break before a member or element. */
    void prefix();
    Writer &open(char open, char close, Style style);
    /** A pre-rendered scalar. */
    Writer &raw(const std::string &text);

    std::ostream &os_;
    std::vector<Frame> stack_;
    int line_;              ///< depth of the current line
    bool afterKey_ = false; ///< a key was written; its value is next
};

/** Reader token kinds; End follows the document's last token. */
enum class Token
{
    ObjectBegin, ObjectEnd, ArrayBegin, ArrayEnd, Key,
    String, Number, True, False, Null, End
};

/**
 * Pull reader over text the caller keeps alive: next() yields one
 * token at a time. Cheap to copy, so a walker can look ahead on a
 * copy. Errors (including nesting deeper than kMaxDepth) throw
 * std::runtime_error naming the offset.
 */
class Reader
{
  public:
    static constexpr std::size_t kMaxDepth = 256;

    explicit Reader(std::string_view text) : text_(text) {}

    Token next();
    /** Decoded text of the last Key or String token. */
    const std::string &text() const { return str_; }
    /** Value of the last Number token. */
    double number() const { return num_; }
    /** Open containers around the reader's position. */
    std::size_t depth() const { return stack_.size(); }
    /**
     * Skip the rest of the value the last token began: through the
     * matching end for ObjectBegin/ArrayBegin, nothing for a scalar.
     */
    void skip();

    /**
     * After ObjectBegin: call fn(key, token) with each member's key
     * and the first token of its value, through the matching
     * ObjectEnd. fn reads a container value whole or not at all;
     * what it leaves is skipped.
     */
    template <typename Fn>
    void
    forEachMember(Fn &&fn)
    {
        for (Token t = next(); t == Token::Key; t = next()) {
            const std::string key = str_;
            const Token value = next();
            const std::size_t d = depth();
            fn(key, value);
            if (depth() == d)
                skip();
        }
    }

  private:
    /** What may come next; the ...OrEnd states follow '[' / '{'. */
    enum class Expect
    {
        Value, ValueOrEnd, Key, KeyOrEnd, AfterValue, Done
    };

    [[noreturn]] void fail(const std::string &what) const;
    void skipWs();
    char peek();
    Token close(char c);
    Token scalar();
    void literal(std::string_view word);
    void readString();
    void readNumber();

    std::string_view text_;
    std::size_t pos_ = 0;
    Expect expect_ = Expect::Value;
    std::vector<char> stack_; ///< '{' or '[' per open container
    std::string str_;
    double num_ = 0.0;
};

} // namespace cwsp::json

#endif // CWSP_SIM_JSON_HH
