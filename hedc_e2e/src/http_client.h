// A keep-alive HTTP/1.1 client connection for the benchmark's client
// process: one GET at a time, Content-Length framed responses.
#ifndef HEDC_E2E_HTTP_CLIENT_H_
#define HEDC_E2E_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hedc::e2e {

struct HttpReply {
  int status = 0;  // 0: transport failure
  std::string content_type;
  std::string set_cookie;  // value of the hedc_session cookie, if set
  std::string body;
};

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(int port);
  // Sends GET `target` with an optional session cookie and reads the
  // reply. A transport failure closes the connection and returns status 0;
  // the next Get reconnects.
  HttpReply Get(const std::string& target, const std::string& cookie);
  void Close();

 private:
  bool ReadReply(HttpReply* reply);

  int port_ = 0;
  int fd_ = -1;
  std::string buffer_;  // bytes received past the previous reply
};

}  // namespace hedc::e2e

#endif  // HEDC_E2E_HTTP_CLIENT_H_
