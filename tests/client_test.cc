// LineClient's framing against a bare loopback peer: a reply line of any
// length, and a second line that arrives in the same write, come back
// whole and in order.

#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace acquire {
namespace {

// Reads one request line from `fd`, byte by byte; false on EOF or error.
bool ReadRequestLine(int fd) {
  char c = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) return false;
    if (c == '\n') return true;
  }
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

TEST(ClientTest, MegabyteLineAndTheNextArriveWhole) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // an ephemeral port
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  std::string first(1 << 20, ' ');
  for (size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<char>('a' + i % 26);
  }
  const std::string second = "{\"ok\":true}";

  // The peer answers the first request with both lines in one write, then
  // waits for the second request, which the client answers from its buffer.
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    if (ReadRequestLine(fd) && WriteAll(fd, first + "\n" + second + "\n")) {
      ReadRequestLine(fd);
    }
    ::close(fd);
  });

  LineClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  Result<std::string> got_first = Status::IOError("not connected");
  Result<std::string> got_second = Status::IOError("not connected");
  if (connected.ok()) {
    got_first = client.CallRaw("one");
    got_second = client.CallRaw("two");
  } else {
    ::shutdown(listener, SHUT_RDWR);  // unblocks the peer's accept
  }
  client.Close();
  peer.join();
  ::close(listener);

  ASSERT_TRUE(got_first.ok()) << got_first.status().ToString();
  EXPECT_EQ(got_first->size(), first.size());
  EXPECT_TRUE(*got_first == first);
  ASSERT_TRUE(got_second.ok()) << got_second.status().ToString();
  EXPECT_EQ(*got_second, second);
}

}  // namespace
}  // namespace acquire
