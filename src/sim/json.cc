#include "sim/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace cwsp::json {

std::string
numberText(double v, int precision)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    return buf;
}

bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return true;
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    write(os);
    return true;
}

void
Writer::prefix()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (stack_.empty())
        return;
    Frame &f = stack_.back();
    if (!f.empty)
        os_ << f.style.comma;
    f.empty = false;
    if (f.style.indent) {
        line_ = f.indent + f.style.indent;
        os_ << '\n' << std::string(line_, ' ');
    }
}

Writer &
Writer::open(char open, char close, Style style)
{
    prefix();
    os_ << open;
    stack_.push_back(Frame{style, line_, true, close});
    return *this;
}

Writer &
Writer::end()
{
    const Frame f = stack_.back();
    stack_.pop_back();
    if (f.style.indent && !f.empty) {
        line_ = f.indent;
        os_ << '\n' << std::string(line_, ' ');
    }
    os_ << f.close;
    return *this;
}

Writer &
Writer::raw(const std::string &text)
{
    prefix();
    os_ << text;
    return *this;
}

/**
 * The one escaper: quotes, backslashes and the common whitespace
 * escapes by name, every other control character as \u00XX, all
 * other bytes (UTF-8 included) verbatim.
 */
Writer &
Writer::value(std::string_view s)
{
    prefix();
    os_ << '"';
    for (char ch : s) {
        switch (ch) {
          case '"': os_ << "\\\""; break;
          case '\\': os_ << "\\\\"; break;
          case '\n': os_ << "\\n"; break;
          case '\t': os_ << "\\t"; break;
          case '\r': os_ << "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(ch));
                os_ << buf;
            } else {
                os_ << ch;
            }
        }
    }
    os_ << '"';
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    value(k);
    os_ << stack_.back().style.colon;
    afterKey_ = true;
    return *this;
}

void
Reader::fail(const std::string &what) const
{
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
}

void
Reader::skipWs()
{
    pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_),
                    text_.size());
}

char
Reader::peek()
{
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    return text_[pos_];
}

Token
Reader::close(char c)
{
    ++pos_;
    stack_.pop_back();
    expect_ = Expect::AfterValue;
    return c == '}' ? Token::ObjectEnd : Token::ArrayEnd;
}

Token
Reader::next()
{
    skipWs();
    if (expect_ == Expect::AfterValue) {
        if (stack_.empty()) {
            expect_ = Expect::Done;
        } else {
            const char want = stack_.back() == '{' ? '}' : ']';
            const char c = peek();
            if (c == want)
                return close(c);
            if (c != ',')
                fail(std::string("expected ',' or '") + want + "'");
            ++pos_;
            skipWs();
            expect_ = want == '}' ? Expect::Key : Expect::Value;
        }
    }
    switch (expect_) {
      case Expect::Done:
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return Token::End;
      case Expect::KeyOrEnd:
        if (peek() == '}')
            return close('}');
        [[fallthrough]];
      case Expect::Key:
        if (peek() != '"')
            fail("expected '\"'");
        readString();
        skipWs();
        if (peek() != ':')
            fail("expected ':'");
        ++pos_;
        expect_ = Expect::Value;
        return Token::Key;
      case Expect::ValueOrEnd:
        if (peek() == ']')
            return close(']');
        [[fallthrough]];
      default:
        return scalar();
    }
}

/** A value: a container's opening bracket or a whole scalar. */
Token
Reader::scalar()
{
    const char c = peek();
    if (c == '{' || c == '[') {
        if (stack_.size() >= kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++pos_;
        stack_.push_back(c);
        expect_ = c == '{' ? Expect::KeyOrEnd : Expect::ValueOrEnd;
        return c == '{' ? Token::ObjectBegin : Token::ArrayBegin;
    }
    expect_ = Expect::AfterValue;
    switch (c) {
      case '"': readString(); return Token::String;
      case 't': literal("true"); return Token::True;
      case 'f': literal("false"); return Token::False;
      case 'n': literal("null"); return Token::Null;
      default: readNumber(); return Token::Number;
    }
}

void
Reader::skip()
{
    const std::size_t outer = depth();
    if (expect_ != Expect::KeyOrEnd && expect_ != Expect::ValueOrEnd)
        return; // the last token was a scalar or an end
    while (depth() >= outer)
        next();
}

void
Reader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        fail("expected literal " + std::string(word));
    pos_ += word.size();
}

void
Reader::readString()
{
    ++pos_; // opening quote
    str_.clear();
    auto hex4 = [this]() {
        unsigned cp = 0;
        const char *p = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            fail("bad \\u escape");
        pos_ += 4;
        return cp;
    };
    while (true) {
        if (pos_ >= text_.size())
            fail("unterminated string");
        const char c = text_[pos_++];
        if (c == '"')
            return;
        if (static_cast<unsigned char>(c) < 0x20)
            fail("raw control character in string");
        if (c != '\\') {
            str_ += c;
            continue;
        }
        if (pos_ >= text_.size())
            fail("unterminated escape");
        const char e = text_[pos_++];
        constexpr const char *kEscape = "\"\\/bfnrt";
        constexpr const char *kDecoded = "\"\\/\b\f\n\r\t";
        if (const char *at = std::strchr(kEscape, e); at && e) {
            str_ += kDecoded[at - kEscape];
            continue;
        }
        if (e != 'u')
            fail("bad escape");
        // Basic-plane code points only: a surrogate, paired or not,
        // decodes as U+FFFD.
        unsigned cp = hex4();
        if (cp >= 0xD800 && cp < 0xE000)
            cp = 0xFFFD;
        if (cp < 0x80) {
            str_ += static_cast<char>(cp);
        } else if (cp < 0x800) {
            str_ += static_cast<char>(0xC0 | cp >> 6);
            str_ += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            str_ += static_cast<char>(0xE0 | cp >> 12);
            str_ += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
            str_ += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }
}

void
Reader::readNumber()
{
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t start = pos_;
    auto at = [this](const char *set) {
        return pos_ < text_.size() && text_[pos_] &&
               std::strchr(set, text_[pos_]);
    };
    auto digits = [&]() {
        if (!at("0123456789"))
            fail(pos_ == start ? "expected value" : "expected digit");
        while (at("0123456789"))
            ++pos_;
    };
    pos_ += at("-");
    if (at("0"))
        ++pos_;
    else
        digits();
    if (at(".")) {
        ++pos_;
        digits();
    }
    if (at("eE")) {
        ++pos_;
        pos_ += at("+-");
        digits();
    }
    // A digit straight after the number ("01") is not one number.
    if (at("0123456789"))
        fail("leading zero in number");
    num_ = std::strtod(
        std::string(text_.substr(start, pos_ - start)).c_str(),
        nullptr);
}

} // namespace cwsp::json
