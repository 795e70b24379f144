//! A small blocking client for the daemon's line protocol, used by the
//! `netdiag-serve` CLI subcommands, the bench harness and the tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::server::Conn;

/// One connection to a running daemon.
pub struct Client {
    writer: Conn,
    reader: BufReader<Conn>,
}

impl Client {
    /// Connects over TCP, e.g. `127.0.0.1:4915`.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One logical message spans several writes (payload, then the
        // line terminator); Nagle + delayed ACK would stall each
        // request ~40-90ms waiting to coalesce them.
        stream.set_nodelay(true)?;
        Client::over(Conn::Tcp(stream))
    }

    /// Connects over a Unix domain socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Client::over(Conn::Unix(UnixStream::connect(path)?))
    }

    fn over(conn: Conn) -> std::io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(conn.try_clone()?),
            writer: conn,
        })
    }

    /// Sends one request line and blocks for the response line.
    /// `line` must not contain a newline (the protocol is one object
    /// per line); the trailing newline is added here.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}
