#include "serve/protocol.hpp"

#include "net/frame.hpp"
#include "support/check.hpp"
#include "support/fnv.hpp"

namespace ds::serve {

namespace {

/// Bounds-checked cursor over a received word payload; every read throws
/// ds::CheckError past the end instead of running off a hostile length.
class WordReader {
 public:
  WordReader(const std::uint64_t* words, std::size_t count)
      : words_(words), count_(count) {}

  std::uint64_t word(const char* what) {
    DS_CHECK_MSG(pos_ < count_,
                 std::string("malformed serve payload: truncated ") + what);
    return words_[pos_++];
  }

  std::string string(const char* what) {
    const std::uint64_t bytes = word(what);
    const std::uint64_t words = (bytes + 7) / 8;
    DS_CHECK_MSG(bytes <= 8 * (count_ - pos_) && pos_ + words <= count_,
                 std::string("malformed serve payload: truncated ") + what);
    const std::string s =
        net::unpack_string(words_ + pos_ - 1, 1 + words);
    pos_ += static_cast<std::size_t>(words);
    return s;
  }

  void done(const char* what) const {
    DS_CHECK_MSG(pos_ == count_,
                 std::string("malformed serve payload: trailing words in ") +
                     what);
  }

 private:
  const std::uint64_t* words_;
  std::size_t count_;
  std::size_t pos_ = 0;
};

void append_string(std::vector<std::uint64_t>& out, const std::string& s) {
  const std::vector<std::uint64_t> packed = net::pack_string(s);
  out.insert(out.end(), packed.begin(), packed.end());
}

void check_version(WordReader& r, const char* what) {
  const std::uint64_t version = r.word("version");
  DS_CHECK_MSG(version == kServeProtocolVersion,
               std::string("serve protocol version mismatch in ") + what +
                   ": got " + std::to_string(version) + ", this build speaks " +
                   std::to_string(kServeProtocolVersion));
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kError:
      return "error";
  }
  return "?";
}

std::vector<std::uint64_t> encode_request(const Request& req) {
  std::vector<std::uint64_t> out;
  out.push_back(kServeProtocolVersion);
  out.push_back(req.id);
  out.push_back(req.seed);
  out.push_back(req.params.size());
  append_string(out, req.algo);
  for (const auto& [key, value] : req.params) {
    append_string(out, key);
    append_string(out, value);
  }
  return out;
}

Request decode_request(const std::uint64_t* words, std::size_t count) {
  DS_CHECK_MSG(count <= kMaxRequestWords,
               "serve request too large (" + std::to_string(count) +
                   " words)");
  WordReader r(words, count);
  check_version(r, "request");
  Request req;
  req.id = r.word("id");
  req.seed = r.word("seed");
  const std::uint64_t num_params = r.word("param count");
  DS_CHECK_MSG(num_params <= count,
               "malformed serve payload: absurd param count");
  req.algo = r.string("algo name");
  DS_CHECK_MSG(!req.algo.empty(), "serve request names no algorithm");
  req.params.reserve(static_cast<std::size_t>(num_params));
  for (std::uint64_t i = 0; i < num_params; ++i) {
    std::string key = r.string("param key");
    std::string value = r.string("param value");
    req.params.emplace_back(std::move(key), std::move(value));
  }
  r.done("request");
  return req;
}

std::vector<std::uint64_t> encode_response(const Response& resp) {
  std::vector<std::uint64_t> out;
  out.push_back(kServeProtocolVersion);
  out.push_back(resp.id);
  out.push_back(static_cast<std::uint64_t>(resp.status));
  out.push_back(resp.output_digest);
  out.push_back(resp.rounds);
  out.push_back(resp.wall_us);
  append_string(out, resp.brief);
  return out;
}

Response decode_response(const std::uint64_t* words, std::size_t count) {
  WordReader r(words, count);
  check_version(r, "response");
  Response resp;
  resp.id = r.word("id");
  const std::uint64_t status = r.word("status");
  DS_CHECK_MSG(status <= static_cast<std::uint64_t>(Status::kError),
               "malformed serve payload: unknown status");
  resp.status = static_cast<Status>(status);
  resp.output_digest = r.word("output digest");
  resp.rounds = r.word("rounds");
  resp.wall_us = r.word("wall time");
  resp.brief = r.string("brief");
  r.done("response");
  return resp;
}

std::uint64_t params_digest(
    const std::vector<std::pair<std::string, std::string>>& params) {
  // "key=value\n" in override order.
  Fnv1a fnv{kFnvBasis};
  for (const auto& [key, value] : params) {
    fnv.bytes(key.data(), key.size());
    fnv.bytes("=", 1);
    fnv.bytes(value.data(), value.size());
    fnv.bytes("\n", 1);
  }
  return fnv.h;
}

}  // namespace ds::serve
