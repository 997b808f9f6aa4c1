//! Incremental reader of one streamed `POST /v1/generate` response.
//!
//! The gateway answers a generation with a chunked HTTP/1.1 response that
//! carries one SSE `data:` frame per decode step. TCP hands the bytes over
//! in arbitrary pieces: a read can end inside the head, inside a chunk's
//! size line, inside a frame, or between the two bytes of a CRLF. The
//! reader keeps only the unfinished piece (the current frame or line), so
//! the benchmark can timestamp each frame when the read that completes it
//! returns, check it, and drop it — no response body is ever kept.

/// Longest response head or chunk/trailer line accepted.
const MAX_LINE: usize = 16 * 1024;
/// Longest SSE frame accepted (a token row renders to a few KiB).
const MAX_FRAME: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Head,
    ChunkSize,
    ChunkData(usize),
    ChunkEnd(u8),
    Trailers,
    /// A plain (non-chunked) body of the given remaining length; error
    /// responses arrive this way.
    Body(usize),
    Done,
}

/// Parser state of one response. Feed it every read with [`Self::feed`].
#[derive(Debug)]
pub struct StreamReader {
    state: State,
    line: Vec<u8>,
    frame: Vec<u8>,
    status: u16,
    chunked: bool,
    request_id: Option<u64>,
    outcome: Option<String>,
    bytes: u64,
}

impl Default for StreamReader {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamReader {
    /// A reader waiting for the response head.
    pub fn new() -> StreamReader {
        StreamReader {
            state: State::Head,
            line: Vec::new(),
            frame: Vec::new(),
            status: 0,
            chunked: false,
            request_id: None,
            outcome: None,
            bytes: 0,
        }
    }

    /// HTTP status of the response (0 until the head is complete).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Whether the response was a chunked token stream.
    pub fn is_stream(&self) -> bool {
        self.chunked
    }

    /// The server's id of the request (`x-m2x-request-id`), once the head
    /// is complete.
    pub fn request_id(&self) -> Option<u64> {
        self.request_id
    }

    /// The `x-m2x-outcome` trailer, once the stream has ended.
    pub fn outcome(&self) -> Option<&str> {
        self.outcome.as_deref()
    }

    /// Whether the whole response has been read.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Response bytes fed so far, head and framing included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Consumes the next piece of the response. `on_frame` receives each
    /// completed SSE frame without its terminating blank line.
    pub fn feed(
        &mut self,
        mut data: &[u8],
        on_frame: &mut impl FnMut(&[u8]),
    ) -> Result<(), String> {
        self.bytes += data.len() as u64;
        while !data.is_empty() {
            match self.state {
                State::Head => {
                    let (b, rest) = (data[0], &data[1..]);
                    data = rest;
                    self.push_line(b)?;
                    if self.line.ends_with(b"\r\n\r\n") {
                        self.parse_head()?;
                    }
                }
                State::ChunkSize => {
                    let (b, rest) = (data[0], &data[1..]);
                    data = rest;
                    self.push_line(b)?;
                    if self.line.ends_with(b"\r\n") {
                        let text = std::str::from_utf8(&self.line[..self.line.len() - 2])
                            .map_err(|_| "non-UTF-8 chunk size")?;
                        let hex = text.split(';').next().unwrap_or("").trim();
                        let size = usize::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad chunk size {text:?}"))?;
                        self.line.clear();
                        self.state = if size == 0 {
                            State::Trailers
                        } else {
                            State::ChunkData(size)
                        };
                    }
                }
                State::ChunkData(left) => {
                    let take = left.min(data.len());
                    for &b in &data[..take] {
                        self.frame.push(b);
                        if self.frame.ends_with(b"\n\n") {
                            on_frame(&self.frame[..self.frame.len() - 2]);
                            self.frame.clear();
                        } else if self.frame.len() > MAX_FRAME {
                            return Err("SSE frame exceeds 1 MiB".into());
                        }
                    }
                    data = &data[take..];
                    self.state = if take == left {
                        State::ChunkEnd(0)
                    } else {
                        State::ChunkData(left - take)
                    };
                }
                State::ChunkEnd(seen) => {
                    let want = if seen == 0 { b'\r' } else { b'\n' };
                    if data[0] != want {
                        return Err("chunk not terminated by CRLF".into());
                    }
                    data = &data[1..];
                    self.state = if seen == 0 {
                        State::ChunkEnd(1)
                    } else {
                        State::ChunkSize
                    };
                }
                State::Trailers => {
                    let (b, rest) = (data[0], &data[1..]);
                    data = rest;
                    self.push_line(b)?;
                    if self.line.ends_with(b"\r\n") {
                        if self.line.len() == 2 {
                            if !self.frame.is_empty() {
                                return Err("stream ended inside an SSE frame".into());
                            }
                            self.state = State::Done;
                        } else {
                            let text = String::from_utf8_lossy(&self.line[..self.line.len() - 2]);
                            if let Some((name, value)) = text.split_once(':') {
                                if name.trim().eq_ignore_ascii_case("x-m2x-outcome") {
                                    self.outcome = Some(value.trim().to_string());
                                }
                            }
                        }
                        self.line.clear();
                    }
                }
                State::Body(left) => {
                    let take = left.min(data.len());
                    data = &data[take..];
                    self.state = if take == left {
                        State::Done
                    } else {
                        State::Body(left - take)
                    };
                }
                State::Done => return Err("bytes after the end of the response".into()),
            }
        }
        Ok(())
    }

    fn push_line(&mut self, b: u8) -> Result<(), String> {
        self.line.push(b);
        if self.line.len() > MAX_LINE {
            return Err("response head or line exceeds 16 KiB".into());
        }
        Ok(())
    }

    fn parse_head(&mut self) -> Result<(), String> {
        let head = String::from_utf8_lossy(&self.line).into_owned();
        self.line.clear();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        self.status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut content_length = None;
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line.split_once(':').ok_or("bad header line")?;
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("transfer-encoding") {
                self.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-m2x-request-id") {
                self.request_id = value.parse().ok();
            }
        }
        self.state = if self.chunked {
            State::ChunkSize
        } else {
            match content_length {
                Some(0) => State::Done,
                Some(n) => State::Body(n),
                None => return Err("response has neither chunks nor a length".into()),
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(payload: &str) -> String {
        format!("{:x}\r\n{payload}\r\n", payload.len())
    }

    fn response(chunks: &[&str]) -> Vec<u8> {
        let mut out = String::from(
            "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ntransfer-encoding: chunked\r\nx-m2x-request-id: 7\r\n\r\n",
        );
        for c in chunks {
            out.push_str(&chunk(c));
        }
        out.push_str("0\r\nx-m2x-outcome: finished\r\n\r\n");
        out.into_bytes()
    }

    fn frames_of(bytes: &[u8], split: &[usize]) -> (Vec<String>, Vec<usize>, StreamReader) {
        let mut r = StreamReader::new();
        let mut frames = Vec::new();
        let mut per_read = Vec::new();
        let mut at = 0;
        for &end in split.iter().chain(std::iter::once(&bytes.len())) {
            let before = frames.len();
            r.feed(&bytes[at..end], &mut |f: &[u8]| {
                frames.push(String::from_utf8(f.to_vec()).unwrap())
            })
            .unwrap();
            per_read.push(frames.len() - before);
            at = end;
        }
        (frames, per_read, r)
    }

    #[test]
    fn frames_split_across_reads_and_chunks_are_reassembled() {
        // One frame spread over two chunks, and a chunk holding two frames.
        let bytes = response(&[
            "data: {\"index\":0,\"to",
            "ken\":[1.5]}\n\ndata: {\"index\":1,\"token\":[2]}\n\n",
            "data: {\"done\":{}}\n\n",
        ]);
        let whole = frames_of(&bytes, &[]).0;
        assert_eq!(
            whole,
            [
                "data: {\"index\":0,\"token\":[1.5]}",
                "data: {\"index\":1,\"token\":[2]}",
                "data: {\"done\":{}}"
            ]
        );
        // Every single split point, including inside CRLFs and the head,
        // yields the same frames.
        for cut in 1..bytes.len() {
            let (frames, _, r) = frames_of(&bytes, &[cut]);
            assert_eq!(frames, whole, "split at {cut}");
            assert!(r.is_done() && r.is_stream());
            assert_eq!(r.outcome(), Some("finished"));
            assert_eq!(r.status(), 200);
            assert_eq!(r.request_id(), Some(7));
            assert_eq!(r.bytes(), bytes.len() as u64);
        }
        // Byte-at-a-time delivery: a frame is reported by the read that
        // completes it, never earlier.
        let cuts: Vec<usize> = (1..bytes.len()).collect();
        let (frames, per_read, _) = frames_of(&bytes, &cuts);
        assert_eq!(frames, whole);
        assert_eq!(per_read.iter().sum::<usize>(), 3);
        assert!(per_read.iter().all(|&n| n <= 1));
    }

    #[test]
    fn plain_error_response_has_no_frames() {
        let body = "{\"outcome\":\"rejected\"}\n";
        let bytes = format!(
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let (frames, _, r) = frames_of(bytes.as_bytes(), &[7, 40]);
        assert!(frames.is_empty());
        assert!(r.is_done() && !r.is_stream());
        assert_eq!(r.status(), 429);
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let mut r = StreamReader::new();
        let bad = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabcXY";
        assert!(r.feed(bad, &mut |_: &[u8]| {}).is_err());
        let mut r = StreamReader::new();
        let bad = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n";
        assert!(r.feed(bad, &mut |_: &[u8]| {}).is_err());
    }
}
