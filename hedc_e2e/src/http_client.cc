#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace hedc::e2e {

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect(int port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

HttpReply HttpConnection::Get(const std::string& target,
                              const std::string& cookie) {
  HttpReply reply;
  if (fd_ < 0 && !Connect(port_)) return reply;
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (!cookie.empty()) request += "Cookie: hedc_session=" + cookie + "\r\n";
  request += "\r\n";
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return reply;
    }
    off += static_cast<size_t>(n);
  }
  if (!ReadReply(&reply)) {
    Close();
    reply.status = 0;
  }
  return reply;
}

bool HttpConnection::ReadReply(HttpReply* reply) {
  auto fill = [this]() {
    char chunk[64 * 1024];
    while (true) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  };
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  std::string head = buffer_.substr(0, header_end);
  size_t body_start = header_end + 4;
  if (head.compare(0, 5, "HTTP/") != 0) return false;
  size_t sp = head.find(' ');
  if (sp == std::string::npos) return false;
  reply->status = std::atoi(head.c_str() + sp + 1);
  size_t content_length = 0;
  size_t line = head.find("\r\n");
  while (line != std::string::npos) {
    size_t next = head.find("\r\n", line + 2);
    std::string field = head.substr(
        line + 2, (next == std::string::npos ? head.size() : next) - line - 2);
    size_t colon = field.find(':');
    if (colon != std::string::npos) {
      std::string name = field.substr(0, colon);
      std::string value = field.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (strcasecmp(name.c_str(), "Content-Length") == 0) {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (strcasecmp(name.c_str(), "Content-Type") == 0) {
        reply->content_type = value;
      } else if (strcasecmp(name.c_str(), "Set-Cookie") == 0 &&
                 value.rfind("hedc_session=", 0) == 0) {
        reply->set_cookie = value.substr(13, value.find(';') - 13);
      }
    }
    line = next;
  }
  while (buffer_.size() < body_start + content_length) {
    if (!fill()) return false;
  }
  reply->body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return true;
}

}  // namespace hedc::e2e
