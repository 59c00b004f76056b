#include "serve/client.hpp"

#include "net/frame.hpp"
#include "support/check.hpp"

namespace ds::serve {

namespace {

/// A daemon that is up accepts at once; refused connects for this long mean
/// it is gone (or was never started), not that it is still coming up.
constexpr int kRefusedGraceMs = 1000;

}  // namespace

Response submit(const ClientConfig& config, const Request& request) {
  net::Socket sock =
      net::connect_to(config.endpoint(), config.timeout_ms, kRefusedGraceMs);
  net::set_nodelay(sock.fd());
  net::set_io_timeouts(sock.fd(), config.timeout_ms);

  const std::vector<std::uint64_t> payload = encode_request(request);
  net::write_frame(sock.fd(), net::FrameType::kRequest, /*seq=*/0,
                   payload.data(), payload.size(), "serve request");

  const net::Frame frame = net::read_frame(sock.fd(), "serve response");
  DS_CHECK_MSG(
      frame.header.type == static_cast<std::uint32_t>(net::FrameType::kResponse),
      "serve response: unexpected frame type " +
          std::to_string(frame.header.type));
  Response response =
      decode_response(frame.payload.data(), frame.payload.size());
  if (response.id != request.id) {
    // A daemon that could not decode the request (serve-protocol version
    // mismatch, garbage frame) answers with the default id 0 and an
    // explanatory brief — hand that brief to the caller instead of a
    // confusing id-mismatch error.
    if (response.status == Status::kError && response.id == 0) {
      return response;
    }
    DS_CHECK_MSG(false, "serve response answers request id " +
                            std::to_string(response.id) + ", expected " +
                            std::to_string(request.id));
  }
  return response;
}

}  // namespace ds::serve
