#include "runtime/udp_socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/check.h"

namespace abe {

UdpSocket::UdpSocket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  ABE_CHECK_GE(fd_, 0) << "socket(AF_INET, SOCK_DGRAM): "
                       << std::strerror(errno);

  // Poll-interval receive timeout: the reader loop's stop-flag check rides
  // on this, so shutdown never depends on a wakeup datagram arriving.
  timeval tv{};
  tv.tv_sec = kPollIntervalMs / 1000;
  tv.tv_usec = (kPollIntervalMs % 1000) * 1000;
  ABE_CHECK_EQ(
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0)
      << "setsockopt(SO_RCVTIMEO): " << std::strerror(errno);

  // A burst of sends toward a node whose dispatcher is sleeping in a
  // processing-time window must not overflow the default receive buffer —
  // kernel-dropped datagrams look like untracked loss and stall quiescence
  // in unreliable mode. Headers are ~64 bytes, so 1 MiB holds far more
  // in-flight datagrams than any cell under the node budget can produce.
  const int rcvbuf = 1 << 20;
  ABE_CHECK_EQ(
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0)
      << "setsockopt(SO_RCVBUF): " << std::strerror(errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  ABE_CHECK_EQ(
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << "bind(127.0.0.1:0): " << std::strerror(errno);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ABE_CHECK_EQ(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len), 0)
      << "getsockname: " << std::strerror(errno);
  port_ = ntohs(bound.sin_port);
  ABE_CHECK_GT(port_, 0);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpSocket::send_to(std::uint16_t port, const void* data,
                        std::size_t size) const {
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(port);
  const ssize_t sent =
      ::sendto(fd_, data, size, 0, reinterpret_cast<const sockaddr*>(&dest),
               sizeof(dest));
  return sent == static_cast<ssize_t>(size);
}

void UdpSocket::wake_receivers() const {
  // Linux reports ENOTCONN for an unconnected datagram socket but still
  // marks the receive side shut and wakes blocked readers, so the result
  // is deliberately ignored.
  ::shutdown(fd_, SHUT_RD);
}

int UdpSocket::receive(void* buffer, std::size_t capacity) const {
  const ssize_t got = ::recvfrom(fd_, buffer, capacity, 0, nullptr, nullptr);
  if (got >= 0) return static_cast<int>(got);
  // Poll timeout (SO_RCVTIMEO) and signal interruption are the expected
  // idle outcomes; anything else is a real socket failure.
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  return -1;
}

}  // namespace abe
